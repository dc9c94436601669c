"""Circuits that prepare particle-number-conserving multiconfigurational
states, an exact statevector checker, and the algorithms built on top."""

from .algorithms import (
    CumulantSet,
    DegenerateCumulants,
    ElementResources,
    MMatrix,
    QcelsSeries,
    TauTooLarge,
    VqeResult,
    ZeroThirdCumulant,
    cmx2,
    cumulants,
    qcels_estimate,
    qcels_series,
    qcm4,
    sceom_element_resources,
    sceom_energies,
    sceom_m_matrix,
    vqe_minimize,
)
from .circuits import (
    Circuit,
    Gate,
    GateSet,
    ResourceCount,
    UnboundParameterError,
    bind_parameters,
    compile_circuit,
    count_resources,
    gate_matrix,
    gateset_by_name,
)
from .configs import (
    ExcitationOp,
    OnConfig,
    SpecValidationError,
    StateSpec,
    apply_excitation,
    cisd_excitations,
    generate_cisd_configs,
    hamming,
    hartree_fock_config,
    restricted_hamming,
    validate_spec,
    xor_support,
)
from .fileio import (
    ParseError,
    circuit_from_json,
    circuit_to_json,
    parse_hamiltonian,
    parse_state_spec,
)
from .givens import (
    AngleUnderflowError,
    PlanError,
    RotationPlan,
    angles_from_coefficients,
    plan_rotations,
    synthesize_gr,
)
from .paulis import (
    PauliSum,
    PauliWord,
    expectation_of_sum,
    word_multiply,
)
from .simulator import (
    Spectrum,
    StateVector,
    circuit_unitary,
    energy_gradient,
    evolve,
    exact_spectrum,
    expectation,
    fidelity_up_to_phase,
    moments,
    run_circuit,
    subspace_diag,
    subspace_matrix,
)
from .ssp import (
    MergeError,
    MergeStep,
    merge_angle,
    plan_merges,
    synthesize_ssp,
)

__version__ = "0.1.0"
