"""Downstream algorithms driven by the preparation circuits: cumulant-based
energy corrections, variational ground-state search, time-series phase
estimation, and an excited-state equation-of-motion solver."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .circuits import Circuit, bind_parameters
from .configs import ExcitationOp, OnConfig, StateSpec, apply_excitation, hamming, validate_spec
from .givens import synthesize_gr
from .paulis import PauliSum
from .simulator import (
    MAX_DENSE_EVOLVE_QUBITS,
    StateVector,
    evolve,
    expectation,
    run_circuit,
)
from .ssp import synthesize_ssp


class DegenerateCumulants(ArithmeticError):
    """Raised when the quartic correction's guard expressions vanish."""


class ZeroThirdCumulant(ArithmeticError):
    """Raised when the quadratic correction would divide by a zero cumulant."""


class TauTooLarge(ValueError):
    """Raised when the sampling step aliases the spectral range."""


NEAR_EIGENSTATE_VARIANCE = 1e-12
DEGENERACY_TOLERANCE = 1e-12
SYMMETRY_TOLERANCE = 1e-6


@dataclasses.dataclass(frozen=True)
class CumulantSet:
    """First four cumulants of the energy distribution of a state."""

    c1: float
    c2: float
    c3: float
    c4: float


def cumulants(moment_values) -> CumulantSet:
    """Cumulants from raw moments <H>, <H^2>, <H^3>, <H^4>.

    Uses the standard recursion expressing each moment through lower
    cumulants with binomial weights.
    """
    mu = [1.0] + [float(m) for m in moment_values]
    if len(mu) < 5:
        raise ValueError(f"need at least four moments, got {len(mu) - 1}")
    c: list[float] = []
    for m in range(1, 5):
        value = mu[m]
        for p in range(m - 1):
            value -= math.comb(m - 1, p) * c[p] * mu[m - 1 - p]
        c.append(value)
    if c[1] < -1e-10:
        raise ValueError(f"negative variance {c[1]} from inconsistent moments")
    return CumulantSet(*c)


def qcm4(c: CumulantSet) -> float:
    """Quartic connected-moments energy estimate.

    Near-eigenstates (variance below 1e-12) short-circuit to the mean. The
    root expression 3 c3^2 - 2 c2 c4 and the denominator c3^2 - c2 c4 must
    both clear DEGENERACY_TOLERANCE, otherwise DegenerateCumulants is raised.
    """
    if c.c2 < NEAR_EIGENSTATE_VARIANCE:
        return c.c1
    discriminant = 3 * c.c3**2 - 2 * c.c2 * c.c4
    denominator = c.c3**2 - c.c2 * c.c4
    if discriminant <= DEGENERACY_TOLERANCE:
        raise DegenerateCumulants(f"root expression {discriminant:.3e} not positive")
    if abs(denominator) <= DEGENERACY_TOLERANCE:
        raise DegenerateCumulants(f"denominator {denominator:.3e} vanishes")
    return c.c1 - (c.c2**2 / denominator) * (math.sqrt(discriminant) - c.c3)


def cmx2(c: CumulantSet) -> float:
    """Quadratic connected-moments energy estimate c1 - c2^2 / c3."""
    if c.c2 < NEAR_EIGENSTATE_VARIANCE:
        return c.c1
    if abs(c.c3) <= DEGENERACY_TOLERANCE:
        raise ZeroThirdCumulant(f"third cumulant {c.c3:.3e} too small")
    return c.c1 - c.c2**2 / c.c3


# --- variational ground-state search -----------------------------------------


@dataclasses.dataclass(frozen=True)
class VqeResult:
    energy: float
    parameters: dict[str, float]
    state: StateVector
    method: str
    restarts_used: int


def _central_difference_gradient(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(x)
    for i in range(x.size):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (fun(x + shift) - fun(x - shift)) / (2 * step)
    return grad


def vqe_minimize(
    h: PauliSum,
    spec: StateSpec,
    method: str = "gr",
    initial: dict[str, float] | None = None,
    restarts: int = 3,
    seed: int = 0,
    maxiter: int = 500,
) -> VqeResult:
    """Minimize <H> over the preparation circuit's free angles.

    The circuit structure comes from the spec's support set; the spec's
    coefficients only matter as one possible point on the manifold. Runs a
    quasi-Newton search with central-difference gradients from the given
    start plus uniformly random restarts.
    """
    if method == "gr":
        circuit = synthesize_gr(spec, symbolic=True)
    elif method == "ssp":
        circuit = synthesize_ssp(spec, symbolic=True)
    else:
        raise ValueError(f"unknown method {method!r}")
    names = circuit.parameters
    if not names:
        state = run_circuit(circuit)
        return VqeResult(expectation(state, h), {}, state, method, 0)

    def objective(vec: np.ndarray) -> float:
        bound = bind_parameters(circuit, dict(zip(names, vec)))
        return expectation(run_circuit(bound), h)

    rng = np.random.default_rng(seed)
    starts: list[np.ndarray] = []
    if initial is not None:
        starts.append(np.array([initial[name] for name in names]))
    elif method == "gr":
        starts.append(np.zeros(len(names)))
    while len(starts) < restarts:
        starts.append(rng.uniform(-math.pi, math.pi, len(names)))

    # Imported here, not at module level: no other command needs scipy.optimize,
    # and it costs most of the package's import time.
    import scipy.optimize

    best: scipy.optimize.OptimizeResult | None = None
    for x0 in starts:
        result = scipy.optimize.minimize(
            objective,
            x0,
            jac=lambda v: _central_difference_gradient(objective, v),
            method="L-BFGS-B",
            # Loose relative-decrease defaults park the search well above the
            # minimum on flat valleys; force gradient-driven termination.
            options={"maxiter": maxiter, "gtol": 1e-10, "ftol": 1e-15},
        )
        if best is None or result.fun < best.fun:
            best = result
    assignment = dict(zip(names, (float(v) for v in best.x)))
    state = run_circuit(bind_parameters(circuit, assignment))
    return VqeResult(float(best.fun), assignment, state, method, len(starts))


# --- time-series phase estimation --------------------------------------------


@dataclasses.dataclass(frozen=True)
class QcelsSeries:
    """Overlap samples Z_n = <psi| exp(-i H_c tau n) |psi> for the trace-
    centered Hamiltonian H_c; `shift` restores the original zero of energy."""

    tau: float
    values: np.ndarray
    shift: float


def _spectral_range(h: PauliSum) -> float:
    if h.n_qubits <= MAX_DENSE_EVOLVE_QUBITS:
        values = h.eigensystem[0]
        return float(values[-1] - values[0])
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    sparse = h.sparse_matrix()
    try:
        high = eigsh(sparse, k=1, which="LA", return_eigenvectors=False)[0]
        low = eigsh(sparse, k=1, which="SA", return_eigenvectors=False)[0]
    except ArpackNoConvergence as err:
        raise ValueError(
            f"spectral range of the {h.n_qubits}-qubit operator did not converge"
        ) from err
    return float(high.real - low.real)


def _validate_series_args(h: PauliSum, tau: float, n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if tau <= 0:
        raise ValueError("sampling step must be positive")
    spread = _spectral_range(h)
    if spread > 0 and tau >= 2 * math.pi / spread:
        raise TauTooLarge(f"step {tau} aliases spectral range {spread:.6g}")


def qcels_series(state, h: PauliSum, tau: float, n_samples: int) -> QcelsSeries:
    """Sample the autocorrelation of a state under centered time evolution."""
    _validate_series_args(h, tau, n_samples)
    shift = h.identity_coefficient
    amps = state.amps if isinstance(state, StateVector) else np.asarray(state, dtype=complex)
    n = np.arange(n_samples)

    if h.n_qubits <= MAX_DENSE_EVOLVE_QUBITS:
        values, vectors = h.eigensystem
        weights = np.abs(vectors.conj().T @ amps) ** 2
        z = (weights[None, :] * np.exp(-1j * np.outer(n * tau, values))).sum(axis=1)
    else:
        z = np.empty(n_samples, dtype=complex)
        current = StateVector(amps.copy(), h.n_qubits)
        z[0] = 1.0
        for i in range(1, n_samples):
            current = evolve(current, h, tau)
            z[i] = np.vdot(amps, current.amps)
    # Evolving under h rather than h - shift only adds the phase exp(-i shift tau n).
    return QcelsSeries(tau, z * np.exp(1j * shift * tau * n), shift)


def _qcels_objective(series: QcelsSeries, energy: float) -> float:
    n = np.arange(series.values.size)
    return float(abs(np.sum(series.values * np.exp(1j * n * series.tau * energy))) ** 2)


def _qcels_slope(series: QcelsSeries, energy: float) -> float:
    """Derivative of the spectral objective in the energy variable."""
    n = np.arange(series.values.size)
    phases = np.exp(1j * n * series.tau * energy)
    g = np.sum(series.values * phases)
    g_prime = np.sum(1j * n * series.tau * series.values * phases)
    return 2.0 * float(np.real(np.conj(g) * g_prime))


def qcels_estimate(series: QcelsSeries) -> float:
    """Dominant eigenvalue estimate from the peak of the spectral objective.

    Grid search over one alias period brackets the peak; the peak itself is
    then pinned as the zero crossing of the objective's derivative. Bisecting
    the signed derivative sidesteps the flat top the squared modulus has in
    double precision, which would cap a direct maximization near 1e-9.
    """
    tau = series.tau
    n_grid = 10 * series.values.size
    grid = np.linspace(-math.pi / tau, math.pi / tau, n_grid, endpoint=False)
    scores = [_qcels_objective(series, e) for e in grid]
    peak = int(np.argmax(scores))
    step = grid[1] - grid[0]
    a, b = grid[peak] - step, grid[peak] + step

    if _qcels_slope(series, a) > 0 > _qcels_slope(series, b):
        for _ in range(80):
            mid = 0.5 * (a + b)
            if _qcels_slope(series, mid) > 0:
                a = mid
            else:
                b = mid
            if b - a < 1e-14:
                break
        return 0.5 * (a + b) + series.shift

    # No clean sign change (degenerate or very short series): fall back to
    # golden-section on the objective itself.
    ratio = (math.sqrt(5) - 1) / 2
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = _qcels_objective(series, x1), _qcels_objective(series, x2)
    while b - a > 1e-10:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = _qcels_objective(series, x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = _qcels_objective(series, x1)
    return (a + b) / 2 + series.shift


# --- equation-of-motion excited states ---------------------------------------


@dataclasses.dataclass(frozen=True)
class MMatrix:
    """Real symmetric excitation-energy matrix with its ground energy."""

    values: np.ndarray
    ground_energy: float
    excitations: tuple[ExcitationOp, ...]
    configs: tuple[OnConfig, ...]
    signs: tuple[int, ...]


def _excited_configs(hf: OnConfig, excitations) -> tuple[list[OnConfig], list[int]]:
    configs: list[OnConfig] = []
    signs: list[int] = []
    for op in excitations:
        result = apply_excitation(op, hf)
        if result is None:
            raise ValueError(f"excitation {op} is not valid on {hf}")
        configs.append(result[0])
        signs.append(result[1])
    for i, x in enumerate(configs):
        for j in range(i + 1, len(configs)):
            if configs[j] == x:
                raise ValueError(
                    f"excitations {i} and {j} both map {hf} to {x}; basis would collapse"
                )
    return configs, signs


def _prepare(spec: StateSpec, method: str) -> StateVector:
    circuit = synthesize_gr(spec) if method == "gr" else synthesize_ssp(spec)
    return run_circuit(circuit)


def sceom_m_matrix(
    h: PauliSum,
    hf: OnConfig,
    excitations,
    ansatz: Circuit,
    prep_method: str = "gr",
) -> MMatrix:
    """Excitation-energy matrix over single-configuration probes.

    Diagonal entries come from single-configuration inputs to the ansatz;
    off-diagonal real parts from symmetric two-configuration superpositions,
    each with the ground energy subtracted. prep_method chooses how those
    probe states are synthesized.
    """
    if prep_method not in ("gr", "ssp"):
        raise ValueError(f"unknown prep method {prep_method!r}")
    excitations = tuple(excitations)
    configs, signs = _excited_configs(hf, excitations)

    ground = run_circuit(ansatz, _prepare(validate_spec([(1.0, hf)]), prep_method))
    e_ground = expectation(ground, h)

    size = len(configs)
    diag = np.empty(size)
    for i, x in enumerate(configs):
        probe = _prepare(validate_spec([(1.0, x)]), prep_method)
        diag[i] = expectation(run_circuit(ansatz, probe), h) - e_ground

    m = np.diag(diag)
    inv_sqrt2 = 1 / math.sqrt(2)
    for i in range(size):
        for j in range(i + 1, size):
            spec = validate_spec(
                [(signs[i] * inv_sqrt2, configs[i]), (signs[j] * inv_sqrt2, configs[j])]
            )
            probe = _prepare(spec, prep_method)
            pair_energy = expectation(run_circuit(ansatz, probe), h) - e_ground
            m[i, j] = m[j, i] = pair_energy - diag[i] / 2 - diag[j] / 2
    return MMatrix(m, e_ground, excitations, tuple(configs), tuple(signs))


def sceom_energies(m: MMatrix | np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the excitation matrix."""
    values = m.values if isinstance(m, MMatrix) else np.asarray(m, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    if np.max(np.abs(values - values.T)) > SYMMETRY_TOLERANCE:
        raise ValueError("excitation matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh((values + values.T) / 2)


@dataclasses.dataclass(frozen=True)
class ElementResources:
    """Compiled two-qubit costs of one two-configuration probe state."""

    i: int
    j: int
    pair_distance: int
    gr_two_qubit: int
    ssp_two_qubit: int


def sceom_element_resources(hf: OnConfig, excitations, gateset_name: str = "zz"):
    """Per-pair preparation costs for both methods, with the Hamming distance
    between the combined configurations."""
    from .circuits import compile_circuit, count_resources, gateset_by_name

    gateset = gateset_by_name(gateset_name)
    configs, signs = _excited_configs(hf, tuple(excitations))
    inv_sqrt2 = 1 / math.sqrt(2)
    out = []
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            spec = validate_spec(
                [(signs[i] * inv_sqrt2, configs[i]), (signs[j] * inv_sqrt2, configs[j])]
            )
            gr = count_resources(compile_circuit(synthesize_gr(spec), gateset))
            ssp = count_resources(compile_circuit(synthesize_ssp(spec), gateset))
            out.append(
                ElementResources(
                    i,
                    j,
                    hamming(configs[i], configs[j]),
                    gr.two_qubit_total,
                    ssp.two_qubit_total,
                )
            )
    return out
