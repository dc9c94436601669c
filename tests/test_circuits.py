"""Gate, template, and compiler tests against dense embedding oracles."""
import math

import numpy as np
import pytest

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
    UnboundParameterError,
    bind_parameters,
    cnot_gate,
    compile_circuit,
    concatenate,
    count_resources,
    decompose_gate,
    g2_gate,
    g4_gate,
    gate_matrix,
    gateset_by_name,
    inverse,
    phasedx_gate,
    ry_gate,
    rz_gate,
    swap_gate,
    x_gate,
    zzmax_gate,
)
from mcprep.simulator import StateVector, circuit_unitary, run_circuit

# --- dense embedding oracle ---------------------------------------------------


def embed_gate(g: Gate, n: int) -> np.ndarray:
    """Dense n-qubit unitary for one gate, built by explicit index arithmetic.

    Qubit 0 is the most significant bit. Independent of the simulator's
    tensordot path, so the two can check each other.
    """
    base = gate_matrix(g.kind, g.numeric_params())
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    k = len(g.targets)
    shifts = [n - 1 - q for q in g.targets]
    for col in range(dim):
        if any(((col >> (n - 1 - q)) & 1) != s for q, s in g.controls):
            full[col, col] = 1.0
            continue
        sub_col = 0
        for pos, sh in enumerate(shifts):
            sub_col |= ((col >> sh) & 1) << (k - 1 - pos)
        stripped = col
        for sh in shifts:
            stripped &= ~(1 << sh)
        for sub_row in range(1 << k):
            if base[sub_row, sub_col] == 0:
                continue
            row = stripped
            for pos, sh in enumerate(shifts):
                row |= ((sub_row >> (k - 1 - pos)) & 1) << sh
            full[row, col] = base[sub_row, sub_col]
    return full


def oracle_unitary(c: Circuit) -> np.ndarray:
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        u = embed_gate(g, c.n_qubits) @ u
    return u


def max_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) < 1e-9:
        return float(np.abs(a - b).max())
    phase = overlap / abs(overlap)
    return float(np.abs(a * phase - b).max())


def random_circuit(rng, n: int, length: int) -> Circuit:
    gates = []
    for _ in range(length):
        kind = rng.choice(["x", "ry", "rz", "phasedx", "cnot", "swap", "zz", "g2", "g4", "cx_ctrl"])
        qubits = rng.permutation(n)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        if kind == "x":
            gates.append(x_gate(int(qubits[0])))
        elif kind == "ry":
            gates.append(ry_gate(int(qubits[0]), theta))
        elif kind == "rz":
            gates.append(rz_gate(int(qubits[0]), theta))
        elif kind == "phasedx":
            gates.append(phasedx_gate(int(qubits[0]), theta, float(rng.uniform(-3, 3))))
        elif kind == "cnot":
            gates.append(cnot_gate(int(qubits[0]), int(qubits[1])))
        elif kind == "swap":
            gates.append(swap_gate(int(qubits[0]), int(qubits[1])))
        elif kind == "zz":
            gates.append(zzmax_gate(int(qubits[0]), int(qubits[1])))
        elif kind == "g2":
            ctrls = ()
            if n > 2 and rng.random() < 0.5:
                ctrls = ((int(qubits[2]), int(rng.integers(2))),)
            gates.append(g2_gate(int(qubits[0]), int(qubits[1]), theta, ctrls))
        elif kind == "g4" and n >= 4:
            gates.append(g4_gate(*(int(q) for q in qubits[:4]), theta))
        else:
            gates.append(cnot_gate(int(qubits[0]), int(qubits[1]), ((int(qubits[2]), 1),) if n > 2 else ()))
    return Circuit(n, tuple(gates))


# --- gate matrices ------------------------------------------------------------


def test_g2_matrix_rotates_single_excitation_plane():
    theta = 0.37
    m = gate_matrix(G2, (theta,))
    c, s = math.cos(theta), math.sin(theta)
    assert m[2, 2] == pytest.approx(c)
    assert m[1, 2] == pytest.approx(s)
    assert m[2, 1] == pytest.approx(-s)
    assert m[0, 0] == 1.0 and m[3, 3] == 1.0
    assert np.allclose(m @ m.conj().T, np.eye(4))


def test_g4_matrix_rotates_double_excitation_plane():
    theta = -1.2
    m = gate_matrix(G4, (theta,))
    c, s = math.cos(theta), math.sin(theta)
    assert m[12, 12] == pytest.approx(c)
    assert m[3, 12] == pytest.approx(s)
    assert m[12, 3] == pytest.approx(-s)
    untouched = [i for i in range(16) if i not in (3, 12)]
    assert np.allclose(m[np.ix_(untouched, untouched)], np.eye(14))


def test_zzmax_is_fixed_angle_ising_coupling():
    m = gate_matrix(ZZMAX, ())
    zz = np.diag([1, -1, -1, 1]).astype(complex)
    from scipy.linalg import expm

    assert max_phase_deviation(m, expm(-1j * math.pi / 4 * zz)) < 1e-12


def test_phasedx_is_axis_rotated_x_rotation():
    alpha, beta = 0.9, -0.4
    m = gate_matrix(PHASEDX, (alpha, beta))
    rz = gate_matrix(RZ, (beta,))
    rx = np.cos(alpha / 2) * np.eye(2) - 1j * np.sin(alpha / 2) * np.array([[0, 1], [1, 0]])
    assert np.allclose(m, rz @ rx @ rz.conj().T, atol=1e-12)


# --- simulator vs independent embedding oracle --------------------------------


def test_circuit_unitary_matches_embedding_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        c = random_circuit(rng, n, int(rng.integers(1, 12)))
        assert np.allclose(circuit_unitary(c), oracle_unitary(c), atol=1e-12)
    # Every kind under one and two controls of mixed state on permuted wires,
    # through the unitary and through run_circuit on one basis state.
    n = 6
    for kind in sorted(TARGET_ARITY):
        for n_ctrl in (1, 2):
            wires = [int(q) for q in rng.permutation(n)]
            m = TARGET_ARITY[kind]
            states = [int(s) for s in rng.permutation(2)[:n_ctrl]]
            params = tuple(float(rng.uniform(-7, 7)) for _ in range(PARAM_ARITY[kind]))
            c = Circuit(n, (Gate(kind, tuple(wires[:m]), tuple(zip(wires[m:], states)), params),))
            oracle = oracle_unitary(c)
            assert np.allclose(circuit_unitary(c), oracle, atol=1e-12), (kind, n_ctrl)
            col = int(rng.integers(1 << n))
            basis = np.zeros(1 << n, dtype=complex)
            basis[col] = 1.0
            out = run_circuit(c, StateVector(basis, n)).amps
            assert np.allclose(out, oracle[:, col], atol=1e-12), (kind, n_ctrl)


# --- gate and circuit validation ----------------------------------------------


def test_gate_validation_errors():
    with pytest.raises(ValueError):
        Gate("Hm", (0,), (), ())
    with pytest.raises(ValueError):
        Gate(CNOT, (0,), (), ())
    with pytest.raises(ValueError):
        Gate(SWAP, (1, 1), (), ())
    with pytest.raises(ValueError):
        Gate(RY, (0,), ((0, 1),), (0.5,))
    with pytest.raises(ValueError):
        Gate(RY, (0,), ((1, 2),), (0.5,))
    with pytest.raises(ValueError):
        Gate(RY, (0,), ((1, 1), (1, 0)), (0.5,))
    with pytest.raises(ValueError):
        Gate(X, (0,), (), (0.1,))


def test_circuit_rejects_out_of_range_wires():
    with pytest.raises(ValueError):
        Circuit(2, (cnot_gate(0, 2),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_parameters_collected_sorted_and_bindable():
    c = Circuit(2, (ry_gate(0, "b"), rz_gate(1, "a"), ry_gate(1, 0.3)))
    assert c.parameters == ("a", "b")
    bound = bind_parameters(c, {"a": 0.1, "b": 0.2})
    assert bound.parameters == ()
    with pytest.raises(ValueError):
        bind_parameters(c, {"a": 0.1})
    with pytest.raises(ValueError):
        bind_parameters(c, {"a": 0.1, "b": 0.2, "zz": 3.0})


def test_concatenate_joins_same_width_circuits():
    a = Circuit(3, (x_gate(0),))
    b = Circuit(3, (cnot_gate(0, 1),))
    joined = concatenate(a, b)
    assert len(joined.gates) == 2
    with pytest.raises(ValueError):
        concatenate(a, Circuit(2, ()))


def test_inverse_undoes_bound_circuits():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c = random_circuit(rng, n, 8)
        if any(g.kind == ZZMAX for g in c.gates):
            with pytest.raises(ValueError):
                inverse(c)
            continue
        u = circuit_unitary(concatenate(c, inverse(c)))
        assert max_phase_deviation(u, np.eye(1 << n)) < 1e-10


def test_inverse_rejects_symbolic_angles():
    with pytest.raises(UnboundParameterError):
        inverse(Circuit(1, (ry_gate(0, "t"),)))


# --- template decompositions vs analytic unitaries -----------------------------


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_g2_template_matches_analytic_unitary(gateset_name):
    rng = np.random.default_rng(23)
    gs = gateset_by_name(gateset_name)
    for _ in range(6):
        theta = float(rng.uniform(-math.pi, math.pi))
        g = g2_gate(1, 0, theta)
        body = Circuit(2, tuple(decompose_gate(g, gs)))
        assert max_phase_deviation(circuit_unitary(body), embed_gate(g, 2)) < 1e-10


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_g4_template_matches_analytic_unitary(gateset_name):
    rng = np.random.default_rng(24)
    gs = gateset_by_name(gateset_name)
    theta = float(rng.uniform(-math.pi, math.pi))
    g = g4_gate(0, 2, 3, 1, theta)
    body = Circuit(4, tuple(decompose_gate(g, gs)))
    assert max_phase_deviation(circuit_unitary(body), embed_gate(g, 4)) < 1e-10


def test_g4_compiles_to_fourteen_two_qubit_gates():
    for gateset_name in ("cx", "zz"):
        c = Circuit(4, (g4_gate(0, 1, 2, 3, 0.387),))
        compiled = compile_circuit(c, gateset_by_name(gateset_name))
        assert count_resources(compiled).two_qubit_total == 14


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_controlled_templates_match_analytic_unitaries(gateset_name):
    rng = np.random.default_rng(25)
    gs = gateset_by_name(gateset_name)
    cases = [
        cnot_gate(0, 2, ((1, 1),)),  # Toffoli
        cnot_gate(0, 2, ((1, 0),)),  # zero-control Toffoli
        swap_gate(1, 2, ((0, 1),)),  # Fredkin
        ry_gate(2, float(rng.uniform(-3, 3)), ((0, 1), (1, 1))),
        g2_gate(2, 1, float(rng.uniform(-3, 3)), ((0, 1),)),
        g2_gate(2, 1, float(rng.uniform(-3, 3)), ((0, 0),)),
        g4_gate(1, 2, 3, 4, float(rng.uniform(-3, 3)), ((0, 1),)),
        x_gate(3, ((0, 1), (1, 1), (2, 1))),
        x_gate(3, ((0, 0), (1, 1), (2, 0))),
    ]
    for g in cases:
        n = max(g.wires) + 1
        body = Circuit(n, tuple(decompose_gate(g, gs)))
        assert max_phase_deviation(circuit_unitary(body), embed_gate(g, n)) < 1e-10, g.kind


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_compile_preserves_unitary_on_random_circuits(gateset_name):
    rng = np.random.default_rng(26)
    gs = gateset_by_name(gateset_name)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        c = random_circuit(rng, n, int(rng.integers(1, 10)))
        compiled = compile_circuit(c, gs)
        for g in compiled.gates:
            assert g.kind in gs.kinds
            assert not g.controls
        assert max_phase_deviation(circuit_unitary(compiled), oracle_unitary(c)) < 1e-9


def test_compile_rejects_unbound_parameters():
    c = Circuit(2, (g2_gate(0, 1, "t"),))
    with pytest.raises(UnboundParameterError):
        compile_circuit(c, gateset_by_name("cx"))


# --- simplification passes ------------------------------------------------------


def test_zero_angle_rotations_are_elided():
    c = Circuit(
        2,
        (
            ry_gate(0, 0.0),
            rz_gate(1, 2 * math.pi),
            g2_gate(0, 1, 4 * math.pi),
        ),
    )
    assert len(compile_circuit(c, gateset_by_name("cx")).gates) == 0


def test_controlled_rotation_period_is_doubled():
    # A controlled rotation by 2*pi imprints a relative phase of -1, so it
    # must survive compilation; 4*pi is trivial.
    gs = gateset_by_name("cx")
    survives = compile_circuit(Circuit(2, (ry_gate(1, 2 * math.pi, ((0, 1),)),)), gs)
    assert len(survives.gates) > 0
    expected = embed_gate(ry_gate(1, 2 * math.pi, ((0, 1),)), 2)
    assert max_phase_deviation(circuit_unitary(survives), expected) < 1e-10
    trivial = compile_circuit(Circuit(2, (ry_gate(1, 4 * math.pi, ((0, 1),)),)), gs)
    assert len(trivial.gates) == 0


def test_adjacent_self_inverse_pairs_cancel():
    c = Circuit(3, (x_gate(0), x_gate(0), cnot_gate(1, 2), cnot_gate(1, 2)))
    assert len(compile_circuit(c, gateset_by_name("cx")).gates) == 0


def test_same_axis_rotations_merge():
    c = Circuit(1, (rz_gate(0, 0.4), rz_gate(0, 0.35)))
    compiled = compile_circuit(c, gateset_by_name("cx"))
    assert len(compiled.gates) == 1
    assert compiled.gates[0].params[0] == pytest.approx(0.75)
    cancels = Circuit(1, (ry_gate(0, 0.4), ry_gate(0, -0.4)))
    assert len(compile_circuit(cancels, gateset_by_name("cx")).gates) == 0


def test_cancellation_is_wire_adjacency_aware():
    # The Rz on qubit 1 does not block cancelling the X pair on qubit 0.
    c = Circuit(2, (x_gate(0), rz_gate(1, 0.3), x_gate(0)))
    compiled = compile_circuit(c, gateset_by_name("cx"))
    assert [g.kind for g in compiled.gates] == [RZ]
    # A CNOT touching qubit 0 does block it.
    blocked = Circuit(2, (x_gate(0), cnot_gate(0, 1), x_gate(0)))
    kinds = [g.kind for g in compile_circuit(blocked, gateset_by_name("cx")).gates]
    assert kinds.count(X) == 2


# --- resource accounting --------------------------------------------------------


def test_count_resources_tallies_kinds_and_two_qubit_gates():
    c = Circuit(
        3,
        (
            zzmax_gate(0, 1),
            zzmax_gate(1, 2),
            zzmax_gate(0, 2),
            phasedx_gate(0, 0.1, 0.2),
            phasedx_gate(1, 0.3, 0.4),
        ),
    )
    r = count_resources(c)
    assert r.n_gates == 5
    assert r.counts == {ZZMAX: 3, PHASEDX: 2}
    assert r.two_qubit_total == 3
    assert r.depth == 4


def test_count_resources_counts_controls_as_wires():
    r = count_resources(Circuit(3, (ry_gate(2, 0.5, ((0, 1),)),)))
    assert r.two_qubit_total == 1
    assert count_resources(Circuit(1, ())).n_gates == 0
    assert count_resources(Circuit(1, ())).depth == 0


def test_depth_is_greedy_layering():
    c = Circuit(4, (cnot_gate(0, 1), cnot_gate(2, 3), cnot_gate(1, 2)))
    assert count_resources(c).depth == 2
