"""Statevector engine tests against dense linear-algebra oracles."""
import math

import numpy as np
import pytest
import scipy.linalg

from mcprep.circuits import (
    Circuit,
    cnot_gate,
    g2_gate,
    ry_gate,
    rz_gate,
    x_gate,
    zzmax_gate,
)
from mcprep.configs import OnConfig, validate_spec
from mcprep.paulis import PauliSum, PauliWord
from mcprep.simulator import (
    StateVector,
    Spectrum,
    circuit_unitary,
    evolve,
    exact_spectrum,
    expectation,
    fidelity_up_to_phase,
    moments,
    run_circuit,
    subspace_diag,
    subspace_matrix,
)


def random_word(rng, n: int) -> PauliWord:
    return PauliWord.from_string("".join(rng.choice(list("IXYZ"), n)))


def random_sum(rng, n: int, terms: int) -> PauliSum:
    pairs = [(float(rng.standard_normal()), random_word(rng, n)) for _ in range(terms)]
    return PauliSum.from_terms(pairs, n)


def random_state(rng, n: int) -> np.ndarray:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


# --- state construction ---------------------------------------------------------


def test_state_constructors():
    z = StateVector.zero_state(3)
    assert z.amps[0] == 1.0 and z.norm == 1.0
    cfg = OnConfig.from_string("101")
    b = StateVector.basis_state(cfg)
    assert b.amps[5] == 1.0
    assert b.amplitude(cfg) == 1.0
    spec = validate_spec([(0.6, "10"), (0.8, "01")])
    s = StateVector.from_spec(spec)
    assert s.amps[1] == pytest.approx(0.8)  # "01" is index 1
    assert s.amps[2] == pytest.approx(0.6)
    assert s.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), 2)


def test_copy_is_independent():
    a = StateVector.zero_state(1)
    b = a.copy()
    b.amps[0] = 0.0
    assert a.amps[0] == 1.0


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
        initial = StateVector(random_state(rng, n), n)
        out = run_circuit(c, initial)
        assert np.allclose(out.amps, circuit_unitary(c) @ initial.amps, atol=1e-12)
        assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_control_states_select_basis_sectors():
    # Starting from |00>, a 0-state control fires and a 1-state control does not.
    fires = Circuit(2, (x_gate(1, ((0, 0),)),))
    idles = Circuit(2, (x_gate(1, ((0, 1),)),))
    assert run_circuit(fires).amps[1] == 1.0
    assert run_circuit(idles).amps[0] == 1.0
    # From |10> the roles swap.
    ten = StateVector.basis_state(OnConfig.from_string("10"))
    assert run_circuit(idles, ten).amps[3] == 1.0
    assert run_circuit(fires, ten).amps[2] == 1.0


def test_run_circuit_guards():
    with pytest.raises(ValueError):
        run_circuit(Circuit(17, ()))
    with pytest.raises(ValueError):
        run_circuit(Circuit(1, (ry_gate(0, "t"),)))
    with pytest.raises(ValueError):
        run_circuit(Circuit(2, ()), StateVector.zero_state(1))
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(13, ()))


def test_fidelity_up_to_phase_ignores_global_phase():
    rng = np.random.default_rng(32)
    amps = random_state(rng, 3)
    rotated = np.exp(1j * 0.7) * amps
    assert fidelity_up_to_phase(amps, rotated) == pytest.approx(1.0)
    assert fidelity_up_to_phase(StateVector(amps, 3), StateVector(rotated, 3)) == pytest.approx(1.0)
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
        assert expectation(StateVector(amps, n), h) == pytest.approx(dense, abs=1e-11)


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
        out = evolve(StateVector(amps, n), h, t)
        dense = scipy.linalg.expm(-1j * t * h.matrix()) @ amps
        assert np.allclose(out.amps, dense, atol=1e-10)
        assert out.norm == pytest.approx(1.0, abs=1e-12)


def test_evolve_composes_additively():
    rng = np.random.default_rng(36)
    h = random_sum(rng, 3, 4)
    amps = random_state(rng, 3)
    one = evolve(evolve(amps, h, 0.4), h, 0.9)
    both = evolve(amps, h, 1.3)
    assert np.allclose(one.amps, both.amps, atol=1e-10)
    frozen = evolve(amps, h, 0.0)
    assert np.allclose(frozen.amps, amps, atol=1e-14)


def test_evolve_sparse_path_agrees_with_dense_diagonalization():
    rng = np.random.default_rng(37)
    n = 11  # above the dense-evolution cutoff, exercises the sparse branch
    h = random_sum(rng, n, 4)
    amps = random_state(rng, n)
    out = evolve(amps, h, 0.37)
    values, vectors = np.linalg.eigh(h.matrix())
    dense = vectors @ (np.exp(-1j * values * 0.37) * (vectors.conj().T @ amps))
    assert np.allclose(out.amps, dense, atol=1e-9)


def test_evolve_register_mismatch():
    h = PauliSum.from_terms([(1.0, "ZZ")])
    with pytest.raises(ValueError):
        evolve(np.array([1.0, 0.0], dtype=complex), h, 0.1)


# --- spectra and subspaces ----------------------------------------------------------


def test_exact_spectrum_matches_eigvalsh():
    rng = np.random.default_rng(38)
    h = random_sum(rng, 4, 7)
    spec = exact_spectrum(h)
    assert np.allclose(spec.values, np.linalg.eigvalsh(h.matrix()), atol=1e-12)
    assert spec.vectors is None
    with_vec = exact_spectrum(h, with_vectors=True)
    recon = with_vec.vectors @ np.diag(with_vec.values) @ with_vec.vectors.conj().T
    assert np.allclose(recon, h.matrix(), atol=1e-10)


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
    sub = subspace_diag(h, configs)
    assert np.allclose(sub.values, exact_spectrum(h).values, atol=1e-10)
    with pytest.raises(ValueError):
        subspace_matrix(h, configs + [configs[0]])


def test_subspace_diag_interlaces_full_spectrum():
    # Eigenvalues of a principal submatrix sit inside the full spectral range.
    rng = np.random.default_rng(41)
    h = random_sum(rng, 4, 8)
    full = exact_spectrum(h).values
    configs = [OnConfig.from_string(s) for s in ("0011", "0101", "1001", "0110")]
    sub = subspace_diag(h, configs).values
    assert sub[0] >= full[0] - 1e-12
    assert sub[-1] <= full[-1] + 1e-12
