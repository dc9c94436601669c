"""Statevector engine tests against dense linear-algebra oracles."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from mcprep.circuits import (
    CNOT,
    G2,
    G4,
    PARAM_ARITY,
    PHASEDX,
    RY,
    RZ,
    SWAP,
    TARGET_ARITY,
    X,
    ZZMAX,
    Circuit,
    Gate,
    cnot_gate,
    gate_matrix,
    g2_gate,
    ry_gate,
    rz_gate,
    x_gate,
    zzmax_gate,
)
from mcprep.configs import OnConfig, generate_cisd_configs, validate_spec
from mcprep.givens import synthesize_gr
from mcprep.paulis import PauliSum, PauliWord
from mcprep.simulator import (
    _apply_matrix,
    circuit_unitary,
    energy_gradient,
    evolve,
    exact_spectrum,
    expectation,
    fidelity_up_to_phase,
    moments,
    run_circuit,
    subspace_diag,
    spec_state,
    subspace_matrix,
)
from mcprep.ssp import synthesize_ssp


def random_word(rng, n: int) -> PauliWord:
    return PauliWord.from_string("".join(rng.choice(list("IXYZ"), n)))


def random_sum(rng, n: int, terms: int) -> PauliSum:
    pairs = [(float(rng.standard_normal()), random_word(rng, n)) for _ in range(terms)]
    return PauliSum.from_terms(pairs, n)


def random_state(rng, n: int) -> np.ndarray:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def basis_state(config: OnConfig) -> np.ndarray:
    """The computational basis state of a configuration."""
    amps = np.zeros(1 << config.n_qubits, dtype=complex)
    amps[config.index] = 1.0
    return amps


# --- state construction ---------------------------------------------------------


def test_spec_state():
    spec = validate_spec([(0.6, "10"), (0.8, "01")])
    s = spec_state(spec)
    assert s.dtype == complex and s.shape == (4,)
    assert s[1] == pytest.approx(0.8)  # "01" is index 1
    assert s[2] == pytest.approx(0.6)
    assert s[0] == s[3] == 0.0
    assert np.linalg.norm(s) == pytest.approx(1.0)


def test_run_circuit_leaves_initial_unchanged():
    c = Circuit(1, (x_gate(0),))
    for initial in (np.array([1.0, 0.0], dtype=complex), np.array([1.0, 0.0])):
        kept = initial.copy()
        out = run_circuit(c, initial)
        assert np.array_equal(initial, kept) and initial.dtype == kept.dtype
        assert out.dtype == complex and np.array_equal(out, [0.0, 1.0])


# --- gate application -----------------------------------------------------------


def test_run_circuit_matches_unitary_action():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(int(rng.integers(1, 10))):
            q = rng.permutation(n)
            pick = rng.random()
            if pick < 0.3:
                gates.append(ry_gate(int(q[0]), float(rng.uniform(-3, 3))))
            elif pick < 0.5 and n >= 2:
                gates.append(cnot_gate(int(q[0]), int(q[1])))
            elif pick < 0.7 and n >= 2:
                gates.append(zzmax_gate(int(q[0]), int(q[1])))
            elif n >= 3:
                gates.append(g2_gate(int(q[0]), int(q[1]), float(rng.uniform(-3, 3)),
                                     ((int(q[2]), int(rng.integers(2))),)))
            else:
                gates.append(x_gate(int(q[0])))
        c = Circuit(n, tuple(gates))
        initial = random_state(rng, n)
        out = run_circuit(c, initial)
        assert np.allclose(out, circuit_unitary(c) @ initial, atol=1e-12)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def random_kind_circuit(rng, n: int) -> Circuit:
    """Every kind that fits the register, each with 0 to 3 controls of mixed
    states, plus runs of adjacent uncontrolled diagonal and permutation gates
    (Rz, ZZMax, X, CNOT) on shared wires."""
    gates = []
    for _ in range(int(rng.integers(1, 40))):
        fitting = [k for k in TARGET_ARITY if TARGET_ARITY[k] <= n]
        kind = str(rng.choice(fitting))
        wires = [int(q) for q in rng.permutation(n)]
        targets = tuple(wires[:TARGET_ARITY[kind]])
        spare = wires[TARGET_ARITY[kind]:]
        k = int(rng.integers(0, min(3, len(spare)) + 1)) if rng.random() < 0.5 else 0
        controls = tuple((q, int(rng.integers(2))) for q in spare[:k])
        params = tuple(float(rng.uniform(-7, 7)) for _ in range(PARAM_ARITY[kind]))
        gates.append(Gate(kind, targets, controls, params))
        if rng.random() < 0.3:
            for _ in range(int(rng.integers(2, 8))):
                run_kind = str(rng.choice([k for k in (RZ, X, ZZMAX, CNOT) if TARGET_ARITY[k] <= n]))
                pair = tuple(int(q) for q in rng.permutation(targets + tuple(spare))[:TARGET_ARITY[run_kind]])
                angle = (float(rng.uniform(-7, 7)),) if run_kind == RZ else ()
                gates.append(Gate(run_kind, pair, (), angle))
    return Circuit(n, tuple(gates))


def per_gate_state(c: Circuit, initial: np.ndarray) -> np.ndarray:
    """The per-gate kernel of circuit_unitary, on one column."""
    state = initial.astype(complex)
    for g in c.gates:
        _apply_matrix(state, c.n_qubits, gate_matrix(g.kind, g.params), g.targets, g.controls)
    return state


def one_of_each_angle_kind(rng, n: int) -> Circuit:
    """Exactly one gate of each angle-bearing kind that fits the register,
    each with up to two controls of mixed states: one-row matrix stacks."""
    gates = []
    for kind in (RY, RZ, PHASEDX, G2, G4):
        if TARGET_ARITY[kind] > n:
            continue
        wires = [int(q) for q in rng.permutation(n)]
        m = TARGET_ARITY[kind]
        controls = tuple((q, int(rng.integers(2))) for q in wires[m:m + int(rng.integers(3))])
        params = tuple(float(rng.uniform(-7, 7)) for _ in range(PARAM_ARITY[kind]))
        gates.append(Gate(kind, tuple(wires[:m]), controls, params))
    return Circuit(n, tuple(gates[i] for i in rng.permutation(len(gates))))


def test_run_circuit_direct_kernels_match_per_gate_kernel():
    # run_circuit builds the matrices of each kind in one stack and applies
    # uncontrolled Rz, ZZMax, X and CNOT by direct kernels; circuit_unitary
    # keeps the per-gate kernel. Up to 8 qubits the oracle is circuit_unitary
    # itself; above, its kernel runs on the one column, which keeps the
    # 12-qubit case at 64 KB instead of a 256 MB matrix.
    rng = np.random.default_rng(53)
    for n in range(1, 13):
        cases = [random_kind_circuit(rng, n) for _ in range(12 if n <= 8 else 4)]
        cases.append(one_of_each_angle_kind(rng, n))
        for c in cases:
            zero = np.zeros(1 << n, dtype=complex)
            zero[0] = 1
            if n <= 8:
                u = circuit_unitary(c)
                oracle, oracle_from = u[:, 0], u
            else:
                oracle, oracle_from = per_gate_state(c, zero), None
            assert np.abs(run_circuit(c) - oracle).max() < 1e-13, (n, c)
            initial = random_state(rng, n)
            kept = initial.copy()
            out = run_circuit(c, initial)
            assert np.array_equal(initial, kept)
            assert out is not initial
            want = oracle_from @ initial if oracle_from is not None else per_gate_state(c, initial)
            assert np.abs(out - want).max() < 1e-13, (n, c)


def tensordot_apply(amps, n, u, targets, controls):
    """Oracle: contract the matrix with the control-fixed target axes by
    np.tensordot and move the result back with np.moveaxis."""
    m = len(targets)
    index = [slice(None)] * n
    for q, state in controls:
        index[q] = slice(state, state + 1)
    view = amps.reshape((2,) * n + amps.shape[1:])[tuple(index)]
    out = np.tensordot(u.reshape((2,) * (2 * m)), view, axes=(range(m, 2 * m), targets))
    view[...] = np.moveaxis(out, range(m), targets)
    return amps


def test_apply_matrix_equals_tensordot_oracle():
    rng = np.random.default_rng(42)
    kinds = (X, RY, RZ, PHASEDX, CNOT, ZZMAX, SWAP, G2, G4)

    def random_gate(n):
        kind = kinds[int(rng.integers(len(kinds)))]
        wires = [int(q) for q in rng.permutation(n)]
        m = TARGET_ARITY[kind]
        controls = tuple((q, int(rng.integers(2))) for q in wires[m:m + int(rng.integers(3))])
        u = gate_matrix(kind, tuple(rng.uniform(-math.pi, math.pi, PARAM_ARITY[kind])))
        return kind, u, tuple(wires[:m]), controls

    cases = [(n, random_gate(n)) for n in (4, 6, 8, 10, 12) for _ in range(60)]
    cases += [(16, random_gate(16)) for _ in range(4)]
    # Targets in descending and scrambled order.
    cases.append((6, (CNOT, gate_matrix(CNOT, ()), (5, 2), ((0, 0),))))
    cases.append((8, (G4, gate_matrix(G4, (0.7,)), (6, 1, 4, 2), ((7, 1), (0, 0)))))
    seen = set()
    for n, (kind, u, targets, controls) in cases:
        seen.update((kind, len(controls), state) for _, state in controls or ((None, None),))
        for batch in ((), (2,), (3,)):
            shape = (1 << n,) + batch
            amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            expected = tensordot_apply(amps.copy(), n, u, targets, controls)
            assert np.array_equal(_apply_matrix(amps, n, u, targets, controls), expected)
    assert {(kind, 0, None) for kind in kinds} <= seen
    assert {(kind, k, state) for kind in kinds for k in (1, 2) for state in (0, 1)} <= seen


def test_control_states_select_basis_sectors():
    # Starting from |00>, a 0-state control fires and a 1-state control does not.
    fires = Circuit(2, (x_gate(1, ((0, 0),)),))
    idles = Circuit(2, (x_gate(1, ((0, 1),)),))
    assert run_circuit(fires)[1] == 1.0
    assert run_circuit(idles)[0] == 1.0
    # From |10> the roles swap.
    ten = basis_state(OnConfig.from_string("10"))
    assert run_circuit(idles, ten)[3] == 1.0
    assert run_circuit(fires, ten)[2] == 1.0


def test_run_circuit_guards():
    with pytest.raises(ValueError):
        run_circuit(Circuit(17, ()))
    with pytest.raises(ValueError):
        run_circuit(Circuit(2, ()), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(13, ()))


def with_angles(c: Circuit, angles) -> Circuit:
    """The circuit with angles[k] in place of the angle of its k-th
    angle-bearing gate."""
    values = iter(angles)
    return Circuit(c.n_qubits, tuple(
        dataclasses.replace(g, params=(float(next(values)),)) if g.params else g for g in c.gates
    ))


def test_energy_gradient_matches_central_differences():
    rng = np.random.default_rng(41)
    supports = [
        ["1100", "1001", "0110", "0011"],
        [str(x) for x in generate_cisd_configs(3, 2)],
        # 111000 and 000111 are six flips apart: a controlled-SWAP walk.
        ["111000", "000111", "101010"],
        ["11110000", "00001111", "11001100", "10101010", "01010101"],
        [str(x) for x in generate_cisd_configs(4, 2)],
    ]
    step = 1e-6
    seen = set()
    for support in supports:
        n = len(support[0])
        spec = validate_spec([(1 / math.sqrt(len(support)), s) for s in support])
        h = random_sum(rng, n, 4 * n)
        for synthesize in (synthesize_gr, synthesize_ssp):
            c = synthesize(spec)
            seen.update((g.kind, bool(g.controls)) for g in c.gates)
            n_angles = sum(1 for g in c.gates if g.params)

            def energy(vec):
                return expectation(run_circuit(with_angles(c, vec)), h)

            angles = rng.uniform(-math.pi, math.pi, n_angles)
            value, grad = energy_gradient(c, angles, h)
            assert value == pytest.approx(energy(angles), abs=1e-12)
            reference = np.array([
                (energy(angles + step * e) - energy(angles - step * e)) / (2 * step)
                for e in np.eye(n_angles)
            ])
            assert np.max(np.abs(grad - reference)) < 1e-6
    assert {(RY, True), (G2, True), (G4, False), (G4, True), (SWAP, True)} <= seen


def test_energy_gradient_takes_angles_by_gate_position():
    h = PauliSum.from_terms([(1.0, "ZI"), (0.5, "XX")])
    c = Circuit(2, (x_gate(0), g2_gate(0, 1, 0.1), ry_gate(1, 0.2), cnot_gate(0, 1)))
    value, grad = energy_gradient(c, np.array([0.3, -0.4]), h)
    shifted = with_angles(c, [0.3, -0.4])
    assert value == expectation(run_circuit(shifted), h)
    assert energy_gradient(shifted, np.array([0.3, -0.4]), h)[1].tolist() == grad.tolist()
    with pytest.raises(ValueError, match="expected 2 angles"):
        energy_gradient(c, np.array([0.3]), h)
    with pytest.raises(ValueError, match="no generator"):
        energy_gradient(Circuit(2, (rz_gate(0, 0.1),)), np.array([0.3]), h)


def test_fidelity_up_to_phase_ignores_global_phase():
    rng = np.random.default_rng(32)
    amps = random_state(rng, 3)
    rotated = np.exp(1j * 0.7) * amps
    assert fidelity_up_to_phase(amps, rotated) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity_up_to_phase(amps, random_state(rng, 2))


# --- expectations and moments -----------------------------------------------------


def test_expectation_matches_dense_quadratic_form():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        h = random_sum(rng, n, 6)
        amps = random_state(rng, n)
        dense = np.vdot(amps, h.matrix() @ amps).real
        assert expectation(amps, h) == pytest.approx(dense, abs=1e-11)


def test_moments_match_dense_matrix_powers():
    rng = np.random.default_rng(34)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        h = random_sum(rng, n, 5)
        amps = random_state(rng, n)
        got = moments(amps, h, 6)
        dense = h.matrix()
        acc = np.eye(1 << n, dtype=complex)
        for m in range(1, 7):
            acc = dense @ acc
            assert got[m - 1] == pytest.approx(np.vdot(amps, acc @ amps).real, abs=1e-9)


def test_moment_order_is_bounded():
    h = PauliSum.from_terms([(1.0, "Z")])
    amps = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        moments(amps, h, 0)
    with pytest.raises(ValueError):
        moments(amps, h, 9)


# --- time evolution ----------------------------------------------------------------


def test_evolve_matches_dense_expm():
    rng = np.random.default_rng(35)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        h = random_sum(rng, n, 5)
        amps = random_state(rng, n)
        t = float(rng.uniform(-2, 2))
        out = evolve(amps, h, t)
        dense = scipy.linalg.expm(-1j * t * h.matrix()) @ amps
        assert np.allclose(out, dense, atol=1e-10)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def test_evolve_composes_additively():
    rng = np.random.default_rng(36)
    h = random_sum(rng, 3, 4)
    amps = random_state(rng, 3)
    one = evolve(evolve(amps, h, 0.4), h, 0.9)
    both = evolve(amps, h, 1.3)
    assert np.allclose(one, both, atol=1e-10)
    frozen = evolve(amps, h, 0.0)
    assert np.allclose(frozen, amps, atol=1e-14)


def test_evolve_sparse_path_agrees_with_dense_diagonalization():
    rng = np.random.default_rng(37)
    n = 11  # one block of 2^11 rows unless it conserves, where qcels_series evolves
    h = random_sum(rng, n, 4)
    amps = random_state(rng, n)
    out = evolve(amps, h, 0.37)
    values, vectors = np.linalg.eigh(h.matrix())
    dense = vectors @ (np.exp(-1j * values * 0.37) * (vectors.conj().T @ amps))
    assert np.allclose(out, dense, atol=1e-9)


def test_evolve_register_mismatch():
    h = PauliSum.from_terms([(1.0, "ZZ")])
    with pytest.raises(ValueError):
        evolve(np.array([1.0, 0.0], dtype=complex), h, 0.1)


# --- spectra and subspaces ----------------------------------------------------------


def test_exact_spectrum_matches_eigvalsh():
    rng = np.random.default_rng(38)
    h = random_sum(rng, 4, 7)
    assert np.allclose(exact_spectrum(h), np.linalg.eigvalsh(h.matrix()), atol=1e-12)


def test_subspace_matrix_matches_dense_projection():
    rng = np.random.default_rng(39)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        h = random_sum(rng, n, 6)
        size = int(rng.integers(1, min(6, 1 << n) + 1))
        picks = rng.choice(1 << n, size=size, replace=False)
        configs = [OnConfig.from_string(format(int(i), f"0{n}b")) for i in picks]
        dense = h.matrix()[np.ix_(picks, picks)]
        assert np.array_equal(subspace_matrix(h, configs), dense)


def test_subspace_diag_full_basis_recovers_spectrum():
    rng = np.random.default_rng(40)
    h = random_sum(rng, 3, 5)
    configs = [OnConfig.from_string(format(i, "03b")) for i in range(8)]
    assert np.allclose(subspace_diag(h, configs), exact_spectrum(h), atol=1e-10)
    with pytest.raises(ValueError):
        subspace_matrix(h, configs + [configs[0]])


def test_subspace_diag_interlaces_full_spectrum():
    # Eigenvalues of a principal submatrix sit inside the full spectral range.
    rng = np.random.default_rng(41)
    h = random_sum(rng, 4, 8)
    full = exact_spectrum(h)
    configs = [OnConfig.from_string(s) for s in ("0011", "0101", "1001", "0110")]
    sub = subspace_diag(h, configs)
    assert sub[0] >= full[0] - 1e-12
    assert sub[-1] <= full[-1] + 1e-12
