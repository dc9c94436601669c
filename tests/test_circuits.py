"""Gate, template, and compiler tests against dense embedding oracles."""
import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from mcprep import circuits
from mcprep.algorithms import synthesize
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
    compile_circuit,
    count_resources,
    g2_gate,
    g4_gate,
    gate_matrix,
    gateset_by_name,
    phasedx_gate,
    ry_gate,
    rz_gate,
    swap_gate,
    x_gate,
    zzmax_gate,
)
from mcprep.configs import generate_cisd_configs, validate_spec
from mcprep.simulator import circuit_unitary, run_circuit

# --- dense embedding oracle ---------------------------------------------------


def embed_gate(g: Gate, n: int) -> np.ndarray:
    """Dense n-qubit unitary for one gate, built by explicit index arithmetic.

    Qubit 0 is the most significant bit. Independent of the simulator's
    gate kernel, so the two can check each other.
    """
    base = gate_matrix(g.kind, g.params)
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


def test_parameterless_matrices_are_shared_read_only_literals():
    p = np.exp(-1j * np.pi / 4)
    literals = {
        X: [[0, 1], [1, 0]],
        CNOT: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        ZZMAX: np.diag([p, p.conjugate(), p.conjugate(), p]),
        SWAP: [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    }
    for kind, literal in literals.items():
        m = gate_matrix(kind, ())
        assert m.dtype == complex
        assert np.array_equal(m, np.array(literal, dtype=complex))
        assert not m.flags.writeable and gate_matrix(kind, ()) is m
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def plane_generator(n: int, source: str, image: str) -> np.ndarray:
    """|image><source| - |source><image| over n qubits: exp(theta * it) sends
    |source> to cos(theta)|source> + sin(theta)|image>."""
    a = np.zeros((1 << n, 1 << n), dtype=complex)
    a[int(image, 2), int(source, 2)] = 1.0
    a[int(source, 2), int(image, 2)] = -1.0
    return a


# Each angle-bearing kind as the exponential of its generator, independent of
# the cosines and sines of the matrix builder.
EXPONENTIALS = {
    RY: lambda t: scipy.linalg.expm(-0.5j * t * PAULI_Y),
    RZ: lambda t: scipy.linalg.expm(-0.5j * t * PAULI_Z),
    PHASEDX: lambda a, b: scipy.linalg.expm(-0.5j * a * (math.cos(b) * PAULI_X + math.sin(b) * PAULI_Y)),
    G2: lambda t: scipy.linalg.expm(t * plane_generator(2, "10", "01")),
    G4: lambda t: scipy.linalg.expm(t * plane_generator(4, "1100", "0011")),
}


def test_gate_matrices_match_exponentials_of_generators():
    rng = np.random.default_rng(29)
    specials = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi]
    for kind, exponential in EXPONENTIALS.items():
        arity = PARAM_ARITY[kind]
        rows = list(itertools.product(specials, repeat=arity))
        rows += [tuple(rng.uniform(-7, 7, arity)) for _ in range(40)]
        stack = circuits._GATE_MATRICES[kind](np.array(rows, dtype=float))
        assert stack.shape == (len(rows),) + exponential(*rows[0]).shape
        for params, stacked in zip(rows, stack):
            want = exponential(*params)
            assert np.abs(stacked - want).max() < 1e-13, (kind, params)
            assert np.abs(gate_matrix(kind, params) - want).max() < 1e-13, (kind, params)
    for params in ((0.1,), ()):
        with pytest.raises(ValueError, match="unknown gate kind 'Q'"):
            gate_matrix("Q", params)


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
            out = run_circuit(c, basis)
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


# --- template decompositions vs analytic unitaries -----------------------------


def expansion(g: Gate, gs) -> list[Gate]:
    """One gate in the target set before any simplification: the compiler's
    expansion and, for zz, its mapping of every expanded record."""
    recs = circuits._expand((g.kind, g.targets, g.controls, g.params), gs)
    if gs.name == "zz":
        recs = [mapped for rec in recs for mapped in circuits._rewrite_zz(rec)]
    return [Gate(*rec) for rec in recs]


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_g2_template_matches_analytic_unitary(gateset_name):
    rng = np.random.default_rng(23)
    gs = gateset_by_name(gateset_name)
    for _ in range(6):
        theta = float(rng.uniform(-math.pi, math.pi))
        g = g2_gate(1, 0, theta)
        body = Circuit(2, tuple(expansion(g, gs)))
        assert max_phase_deviation(circuit_unitary(body), embed_gate(g, 2)) < 1e-10


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_g4_template_matches_analytic_unitary(gateset_name):
    rng = np.random.default_rng(24)
    gs = gateset_by_name(gateset_name)
    theta = float(rng.uniform(-math.pi, math.pi))
    g = g4_gate(0, 2, 3, 1, theta)
    body = Circuit(4, tuple(expansion(g, gs)))
    assert max_phase_deviation(circuit_unitary(body), embed_gate(g, 4)) < 1e-10


def test_multiplexed_rotation_takes_closed_form_angles():
    # Rotation i of a k-control multiplexor turns the target by
    # +-angle / 2**k, negative when the control pattern shares an odd number
    # of bits with the Gray code i ^ (i >> 1); compiled, the multiplexor is
    # the controlled rotation up to a global phase.
    rng = np.random.default_rng(37)
    for k in range(1, 6):
        for pattern in range(1 << k):
            wires = [int(q) for q in rng.permutation(k + 1)]
            target = wires[0]
            controls = tuple((q, (pattern >> (k - 1 - j)) & 1) for j, q in enumerate(wires[1:]))
            for kind in (RY, RZ):
                angle = float(rng.uniform(-7, 7))
                recs = circuits._multiplexed_rotation(kind, target, controls, angle)
                assert len(recs) == 2 << k
                for i, (rot_kind, targets, rot_controls, (share,)) in enumerate(recs[::2]):
                    sign = -1.0 if bin(pattern & (i ^ i >> 1)).count("1") % 2 else 1.0
                    assert (rot_kind, targets, rot_controls) == (kind, (target,), ())
                    assert share.hex() == (sign * angle / 2**k).hex(), (k, pattern, i)
                assert {rec[0] for rec in recs[1::2]} == {CNOT}
                g = Gate(kind, (target,), controls, (angle,))
                for name in ("cx", "zz"):
                    compiled = compile_circuit(Circuit(k + 1, (g,)), gateset_by_name(name))
                    assert max_phase_deviation(circuit_unitary(compiled), embed_gate(g, k + 1)) < 1e-12


def test_compilation_is_deterministic():
    # Compiling a circuit again, after other compilations, writes the same
    # bytes: nothing carries over from one compilation to the next.
    from mcprep.fileio import circuit_to_json

    first = synthesize(cisd_spec(4, 2), "ssp")
    others = [synthesize(cisd_spec(3, 2), "gr"), *seeded_random_circuits()]
    for name in ("cx", "zz"):
        gs = gateset_by_name(name)
        before = circuit_to_json(compile_circuit(first, gs))
        for c in others:
            compile_circuit(c, gs)
        assert circuit_to_json(compile_circuit(first, gs)) == before


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
        # Four and five controls recurse through the three-control template.
        x_gate(4, ((0, 0), (1, 1), (2, 1), (3, 0))),
        x_gate(5, ((0, 1), (1, 0), (2, 1), (3, 1), (4, 0))),
    ]
    for g in cases:
        n = max(g.wires) + 1
        body = Circuit(n, tuple(expansion(g, gs)))
        # The simplifier relies on expansion emitting only these.
        assert all(not h.controls and h.kind in gs.kinds for h in body.gates), g.kind
        assert max_phase_deviation(circuit_unitary(body), embed_gate(g, n)) < 1e-10, g.kind


def seeded_random_circuits():
    rng = np.random.default_rng(26)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        yield random_circuit(rng, n, int(rng.integers(1, 10)))


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_compile_preserves_unitary_on_random_circuits(gateset_name):
    gs = gateset_by_name(gateset_name)
    for c in seeded_random_circuits():
        compiled = compile_circuit(c, gs)
        for g in compiled.gates:
            assert g.kind in gs.kinds
            assert not g.controls
        assert max_phase_deviation(circuit_unitary(compiled), oracle_unitary(c)) < 1e-9


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_compile_is_a_fixed_point(gateset_name):
    # Simplification runs to a fixed point, so compiling its output again
    # must return the same gates, angle bits included.
    gs = gateset_by_name(gateset_name)
    configs = generate_cisd_configs(3, 2)
    amplitudes = np.random.default_rng(32).standard_normal(len(configs))
    spec = validate_spec(list(zip(amplitudes / np.linalg.norm(amplitudes), configs)))
    circuits = [*seeded_random_circuits(), synthesize(spec, "gr"), synthesize(spec, "ssp")]
    for c in circuits:
        once = compile_circuit(c, gs)
        twice = compile_circuit(once, gs)
        assert repr(twice.gates) == repr(once.gates)
        assert twice == once


def cisd_spec(n_orbitals: int, n_electrons: int):
    """Seeded amplitudes on the CISD space of a closed-shell reference."""
    configs = generate_cisd_configs(n_orbitals, n_electrons)
    rng = np.random.default_rng(100 * n_orbitals + n_electrons)
    amplitudes = rng.standard_normal(len(configs))
    return validate_spec(list(zip(amplitudes / np.linalg.norm(amplitudes), configs)))


CISD_SIZES = ((3, 2), (4, 4), (5, 4), (6, 4))


def corpus_specs(cisd_sizes=CISD_SIZES) -> list:
    """The acceptance specs (the 4-qubit state and the six 8-qubit states)
    and seeded CISD specs."""
    # Imported here: tests.test_acceptance imports this module.
    from tests.test_acceptance import BENCH_4Q, BENCH_8Q

    specs = [validate_spec(BENCH_4Q)]
    specs += [validate_spec(list(zip(coeffs, configs))) for coeffs, configs, _, _ in BENCH_8Q]
    return specs + [cisd_spec(*size) for size in cisd_sizes]


def repeated(stage, recs: list[tuple]) -> tuple[list[tuple], int]:
    """The stage repeated until a round changes nothing, angle bits included,
    and the number of rounds that changed the records."""
    for rounds in range(100):
        new = stage(recs)
        if repr(new) == repr(recs):
            return recs, rounds
        recs = new
    raise AssertionError("no fixed point")


def full_fixed_point(c: Circuit, gs) -> tuple[Circuit, int]:
    """Each simplification stage repeated to its fixed point: the peephole
    pass on the expansion and, for zz, the consolidation on the mapped
    records. Every output record goes through the validating constructors.
    Returns the circuit and the most rounds that changed the records in
    either stage."""
    recs = [rec for g in c.gates for rec in circuits._expand((g.kind, g.targets, g.controls, g.params), gs)]
    recs, rounds = repeated(circuits._peephole_pass, recs)
    if gs.name == "zz":
        runs = {}
        mapped = [m for rec in recs for m in circuits._rewrite_zz(rec)]
        recs, consolidations = repeated(lambda r: circuits._consolidate_1q_runs(r, runs), mapped)
        rounds = max(rounds, consolidations)
    return Circuit(c.n_qubits, tuple(Gate(*rec) for rec in recs)), rounds


def inverse_gate(g: Gate) -> Gate:
    if g.kind in (X, CNOT, SWAP):
        return g
    if g.kind == PHASEDX:
        return Gate(PHASEDX, g.targets, g.controls, (-g.params[0], g.params[1]))
    return Gate(g.kind, g.targets, g.controls, (-g.params[0],))


def cascade_circuit(rng) -> Circuit:
    """Random gates around nested inverse cascades (A B B^-1 A^-1) and runs of
    one rotation on one wire whose angles sum to a multiple of 2 pi."""
    n = int(rng.integers(2, 5))
    gates = []
    for _ in range(int(rng.integers(1, 3))):
        pick = rng.random()
        if pick < 0.3:
            gates += random_circuit(rng, n, int(rng.integers(1, 4))).gates
        elif pick < 0.7:
            a, b = ([g for g in random_circuit(rng, n, int(rng.integers(1, 4))).gates if g.kind != ZZMAX]
                    for _ in range(2))
            gates += a + b + [inverse_gate(g) for g in reversed(a + b)]
        else:
            wires = [int(q) for q in rng.permutation(n)]
            kind = str(rng.choice([RY, RZ, PHASEDX] + ([G2] if n > 2 else [])))
            targets = tuple(wires[:TARGET_ARITY[kind]])
            controls = ((wires[-1], int(rng.integers(2))),) if rng.random() < 0.3 else ()
            beta = float(rng.uniform(-3, 3))
            angles = list(rng.uniform(-7, 7, int(rng.integers(1, 4))))
            angles.append(2 * math.pi * int(rng.integers(-2, 3)) - sum(angles))
            for angle in angles:
                params = (float(angle), beta) if kind == PHASEDX else (float(angle),)
                gates.append(Gate(kind, targets, controls, params))
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("gateset_name", ["cx", "zz"])
def test_compile_stops_where_the_full_loop_stops(gateset_name):
    # compile_circuit runs each simplification stage once; repeating the
    # stages must change nothing after the first round, and the output must
    # be what the full loop gives, angle bits included.
    gs = gateset_by_name(gateset_name)
    rng = np.random.default_rng(61)
    cases = [synthesize(spec, method) for spec in corpus_specs() for method in ("gr", "ssp")]
    cases += [cascade_circuit(rng) for _ in range(1000)]
    # Consolidated to zz, this run gives PhasedX + Rz(1.00009e-12), and that
    # body consolidated again drops the Rz.
    cases.append(Circuit(1, (
        rz_gate(0, -2.4665146887129676),
        phasedx_gate(0, 1.1807501594754077, 2.9843732967856713),
        rz_gate(0, 2.4665146887139677),
    )))
    for c in cases:
        fixed, rounds = full_fixed_point(c, gs)
        assert rounds <= 1, c
        assert repr(compile_circuit(c, gs)) == repr(fixed), c


def test_zz_compiles_the_simplified_cx_circuit_gate_by_gate():
    # Both sets share expansion and the peephole pass; zz then maps each
    # record and consolidates. So a circuit without ZZMax or PhasedX gates
    # compiles to zz as its cx circuit does, with one ZZMax per CNOT of it.
    cx, zz = gateset_by_name("cx"), gateset_by_name("zz")
    rng = np.random.default_rng(67)
    cases = [synthesize(spec, method) for spec in corpus_specs() for method in ("gr", "ssp")]
    for _ in range(1000):
        c = cascade_circuit(rng)
        cases.append(Circuit(c.n_qubits, tuple(g for g in c.gates if g.kind not in (ZZMAX, PHASEDX))))
    assert not {g.kind for c in cases for g in c.gates} & {ZZMAX, PHASEDX}
    for c in cases:
        on_cx, on_zz = compile_circuit(c, cx), compile_circuit(c, zz)
        assert repr(compile_circuit(on_cx, zz)) == repr(on_zz), c
        assert count_resources(on_zz).counts.get(ZZMAX, 0) == count_resources(on_cx).counts.get(CNOT, 0), c


# (n_gates, two_qubit_total, depth) of each 8-qubit acceptance state, per
# method and gate set. The acceptance windows are two-sided ranges around the
# paper's counts and would not notice a drift of one gate.
BENCH_8Q_COUNTS = [
    {("gr", "zz"): (544, 128, 348), ("gr", "cx"): (297, 128, 223),
     ("ssp", "zz"): (67, 15, 31), ("ssp", "cx"): (25, 15, 17)},
] * 4 + [
    {("gr", "zz"): (184, 42, 110), ("gr", "cx"): (70, 42, 65),
     ("ssp", "zz"): (53, 11, 30), ("ssp", "cx"): (20, 11, 16)},
    {("gr", "zz"): (142, 32, 83), ("gr", "cx"): (54, 32, 49),
     ("ssp", "zz"): (53, 11, 28), ("ssp", "cx"): (19, 11, 15)},
]


def test_acceptance_states_compile_to_exact_counts():
    # Imported here: tests.test_acceptance imports this module.
    from tests.test_acceptance import BENCH_8Q

    for (coeffs, configs, _, _), expected in zip(BENCH_8Q, BENCH_8Q_COUNTS, strict=True):
        spec = validate_spec(list(zip(coeffs, configs)))
        for (method, gateset_name), counts in expected.items():
            compiled = compile_circuit(synthesize(spec, method), gateset_by_name(gateset_name))
            r = count_resources(compiled)
            got = (r.n_gates, r.two_qubit_total, r.depth)
            assert got == counts, (configs, method, gateset_name)


def test_gate_rejects_angles_that_are_not_numbers():
    for kind, arity in PARAM_ARITY.items():
        if not arity:
            continue
        targets = tuple(range(TARGET_ARITY[kind]))
        Gate(kind, targets, (), (np.float64(0.5), *[1] * (arity - 1)))
        for bad in ("theta", None, 1j, math.nan, math.inf, -math.inf):
            for slot in range(arity):
                params = [0.5] * arity
                params[slot] = bad
                with pytest.raises(ValueError, match="must be a finite real number"):
                    Gate(kind, targets, (), tuple(params))


def test_compiled_angles_are_python_floats():
    """Every angle the compiler emits is a float, as a circuit file reads back."""
    # Imported here: tests.test_acceptance imports this module.
    from tests.test_acceptance import BENCH_8Q

    specs = [validate_spec(list(zip(coeffs, configs))) for coeffs, configs, _, _ in BENCH_8Q]
    circuits_in = [synthesize(spec, method) for spec in specs for method in ("gr", "ssp")]
    circuits_in.append(synthesize(cisd_spec(4, 4), "gr"))
    assert max(len(g.controls) for c in circuits_in for g in c.gates) >= 3
    for c in circuits_in:
        for gateset_name in ("cx", "zz"):
            compiled = compile_circuit(c, gateset_by_name(gateset_name))
            kinds = {type(p) for g in compiled.gates for p in g.params}
            assert kinds == {float}, (gateset_name, kinds)


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


def test_one_pass_merges_across_a_cancelled_pair():
    # A cancelled pair is popped off its wires, so the rotations on either
    # side of it meet and merge within the same pass.
    a, b, c, d = 0.3, 0.45, -0.2, 0.7
    rz, ry, x, cnot = circuits._rz, circuits._ry, (X, (0,), (), ()), circuits._cnot(0, 1)
    assert circuits._peephole_pass([rz(0, a), x, x, rz(0, b)]) == [rz(0, a + b)]
    assert circuits._peephole_pass([rz(0, a), cnot, cnot, rz(0, b)]) == [rz(0, a + b)]
    both_wires = [rz(0, a), ry(1, c), cnot, cnot, rz(0, b), ry(1, d)]
    assert circuits._peephole_pass(both_wires) == [rz(0, a + b), ry(1, c + d)]
    # A rotation merging to a null angle is popped the same way.
    assert circuits._peephole_pass([x, rz(0, a), rz(0, -a), x]) == []


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
