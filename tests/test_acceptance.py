"""End-to-end acceptance checks, one per shipped guarantee.

Each test covers one externally stated guarantee and prints a single PASS or
FAIL line, so the suite's terminal output doubles as a checklist. Tolerances
sit inline next to the assertions they bound.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest

from mcprep import cli
from mcprep.algorithms import (
    CumulantSet,
    DegenerateCumulants,
    TauTooLarge,
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
from mcprep.circuits import (
    Circuit,
    cnot_gate,
    compile_circuit,
    count_resources,
    g2_gate,
    g4_gate,
    gateset_by_name,
    zzmax_gate,
)
from mcprep.configs import OnConfig, StateSpec, apply_excitation, cisd_excitations, hamming, validate_spec
from mcprep.givens import angles_from_coefficients, plan_rotations, synthesize_gr
from mcprep.paulis import PauliSum
from mcprep.simulator import (
    circuit_unitary,
    fidelity_up_to_phase,
    moments,
    run_circuit,
    spec_state,
    subspace_diag,
)
from mcprep.ssp import synthesize_ssp

from tests.test_algorithms import (
    TWO_ORBITAL_SECTOR,
    exact_ground_ansatz,
    number_conserving_hamiltonian,
    random_sum,
    spin_conserving_hamiltonian,
)
from tests.test_circuits import max_phase_deviation
from tests.test_givens import random_equal_weight_spec
from tests.test_simulator import basis_state

ZZ_SET = gateset_by_name("zz")
CX_SET = gateset_by_name("cx")


@contextlib.contextmanager
def criterion(capsys, number: int, label: str):
    """Print exactly one verdict line for an acceptance criterion."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nacceptance {number:02d} FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"\nacceptance {number:02d} PASS  {label}")


_POPCOUNTS: dict[int, np.ndarray] = {}


def popcounts(n: int) -> np.ndarray:
    if n not in _POPCOUNTS:
        _POPCOUNTS[n] = np.array([bin(i).count("1") for i in range(1 << n)])
    return _POPCOUNTS[n]


def two_qubit_count(circuit: Circuit) -> int:
    return count_resources(circuit).two_qubit_total


# --- 01: randomized synthesis is exact and sector confined ---------------------


def test_01_randomized_synthesis_exactness(capsys):
    with criterion(capsys, 1, "randomized synthesis: fidelity, leakage, weight sector"):
        rng = np.random.default_rng(11)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 9))
            spec = random_equal_weight_spec(rng, n, d)
            target = spec_state(spec)
            support = np.zeros(1 << n, dtype=bool)
            for x in spec.configs:
                support[x.index] = True
            for synth in (synthesize_gr, synthesize_ssp):
                amps = run_circuit(synth(spec))
                assert fidelity_up_to_phase(amps, target) >= 1 - 1e-9
                assert np.abs(amps[~support]).max() <= 1e-10
                occupied = np.abs(amps) > 1e-10
                assert np.all(popcounts(n)[occupied] == spec.weight)
        assert time.monotonic() - start < 120.0


# --- 02: four-qubit benchmark state ---------------------------------------------

BENCH_4Q = [(-0.00009, "1100"), (0.70710, "1001"), (0.70712, "0110"), (0.00007, "0011")]


def test_02_four_qubit_benchmark_counts_and_control(capsys):
    with criterion(capsys, 2, "4-qubit benchmark: compiled costs, one external control"):
        start = time.monotonic()
        spec = validate_spec(BENCH_4Q)
        target = spec_state(spec)

        ssp = compile_circuit(synthesize_ssp(spec), ZZ_SET)
        assert fidelity_up_to_phase(run_circuit(ssp), target) >= 1 - 1e-9
        assert 5 - 2 <= two_qubit_count(ssp) <= 5 + 2

        gr = compile_circuit(synthesize_gr(spec), ZZ_SET)
        assert fidelity_up_to_phase(run_circuit(gr), target) >= 1 - 1e-9
        assert 44 * 0.7 <= two_qubit_count(gr) <= 44 * 1.3

        controls = [c for rot in plan_rotations(spec.configs).rotations for c in rot.controls]
        assert controls == [(1, 1)]
        assert time.monotonic() - start < 30.0


# --- 03: eight-qubit benchmark set ----------------------------------------------

COMMON_8Q = ("11110000", "11001100", "10011001", "01100110")
BENCH_8Q = [
    ((0.9690, -0.2345, 0.0546, 0.0547), COMMON_8Q, 128, 17),
    ((0.9683, -0.2380, 0.0533, 0.0534), COMMON_8Q, 128, 17),
    ((0.9617, -0.2648, 0.0503, 0.0503), COMMON_8Q, 128, 17),
    ((0.9354, -0.3481, 0.0441, 0.0441), COMMON_8Q, 128, 17),
    (
        (0.8281, -0.5522, -0.0681, 0.0681),
        ("11110000", "11001100", "10011100", "01101100"),
        40,
        13,
    ),
    (
        (0.7044, 0.7044, 0.0615, 0.0615),
        ("11100100", "11011000", "10110100", "01111000"),
        32,
        11,
    ),
]


def test_03_eight_qubit_benchmark_costs(capsys):
    with criterion(capsys, 3, "six 8-qubit benchmarks: fidelity and compiled cost windows"):
        start = time.monotonic()
        for coeffs, configs, gr_listed, ssp_listed in BENCH_8Q:
            spec = validate_spec(list(zip(coeffs, configs)))
            target = spec_state(spec)

            ssp = compile_circuit(synthesize_ssp(spec), ZZ_SET)
            gr = compile_circuit(synthesize_gr(spec), ZZ_SET)
            assert fidelity_up_to_phase(run_circuit(ssp), target) >= 1 - 1e-9
            assert fidelity_up_to_phase(run_circuit(gr), target) >= 1 - 1e-9

            ssp_count, gr_count = two_qubit_count(ssp), two_qubit_count(gr)
            assert 0.7 * ssp_listed <= ssp_count <= 1.3 * ssp_listed
            assert 0.7 * gr_listed <= gr_count <= 1.3 * gr_listed
            assert ssp_count < gr_count
        assert time.monotonic() - start < 30.0


# --- 04: sparse two-configuration cost and double-rotation template cost --------


def test_04_two_configuration_and_double_rotation_costs(capsys):
    with criterion(capsys, 4, "two-configuration prep costs 3; double rotation costs 14"):
        start = time.monotonic()
        amp = 1 / math.sqrt(2)
        spec = validate_spec([(amp, "10110100"), (-amp, "01111000")])
        native = synthesize_ssp(spec)
        assert fidelity_up_to_phase(run_circuit(native), spec_state(spec)) >= 1 - 1e-9
        assert two_qubit_count(native) == 3
        compiled = compile_circuit(native, ZZ_SET)
        assert abs(two_qubit_count(compiled) - 3) <= 1

        template = compile_circuit(Circuit(4, (g4_gate(0, 1, 2, 3, 0.37),)), ZZ_SET)
        assert two_qubit_count(template) == 14
        assert time.monotonic() - start < 30.0


# --- 05: decomposition templates against analytic unitaries ---------------------


def _bit_mask(n: int, q: int) -> int:
    return 1 << (n - 1 - q)


def plane_stage(n, kind, targets, controls, theta=0.0):
    """Analytic dense unitary for one permutation or plane-rotation stage.

    Built by walking basis states directly, so it shares nothing with the
    package's gate matrices or simulator.
    """
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        if any(bits[q] != v for q, v in controls):
            out[col, col] = 1.0
            continue
        if kind == "x":
            out[col ^ _bit_mask(n, targets[0]), col] = 1.0
        elif kind == "cnot":
            a, b = targets
            out[col ^ _bit_mask(n, b) if bits[a] else col, col] = 1.0
        elif kind == "swap":
            i, j = targets
            other = col ^ _bit_mask(n, i) ^ _bit_mask(n, j) if bits[i] != bits[j] else col
            out[other, col] = 1.0
        elif kind == "g2":
            i, j = targets
            if bits[i] == bits[j]:
                out[col, col] = 1.0
            else:
                other = col ^ _bit_mask(n, i) ^ _bit_mask(n, j)
                out[col, col] = c
                out[other, col] = s if bits[i] else -s
        elif kind == "g4":
            pattern = tuple(bits[q] for q in targets)
            if pattern in ((1, 1, 0, 0), (0, 0, 1, 1)):
                other = col
                for q in targets:
                    other ^= _bit_mask(n, q)
                out[col, col] = c
                out[other, col] = s if pattern == (1, 1, 0, 0) else -s
            else:
                out[col, col] = 1.0
        else:
            raise AssertionError(kind)
    return out


def stage_product(n, stages):
    u = np.eye(1 << n, dtype=complex)
    for stage in stages:
        u = plane_stage(n, *stage) @ u
    return u


def test_05_templates_match_analytic_unitaries(capsys):
    with criterion(capsys, 5, "all decomposition templates match analytic unitaries"):
        rng = np.random.default_rng(5)
        worst = 0.0

        def check(circuit, oracle):
            nonlocal worst
            worst = max(worst, max_phase_deviation(circuit_unitary(circuit), oracle))

        for _ in range(5):
            theta = float(rng.uniform(-math.pi, math.pi))
            g2_oracle = plane_stage(2, "g2", (0, 1), (), theta)
            g4_oracle = plane_stage(4, "g4", (0, 1, 2, 3), (), theta)
            for gates in (ZZ_SET, CX_SET):
                check(compile_circuit(Circuit(2, (g2_gate(0, 1, theta),)), gates), g2_oracle)
                check(compile_circuit(Circuit(4, (g4_gate(0, 1, 2, 3, theta),)), gates), g4_oracle)

            # controlled variants, both control polarities
            for state in (1, 0):
                ctrl_g2 = Circuit(3, (g2_gate(1, 2, theta, ((0, state),)),))
                oracle = plane_stage(3, "g2", (1, 2), ((0, state),), theta)
                check(compile_circuit(ctrl_g2, ZZ_SET), oracle)
            ctrl_g4 = Circuit(5, (g4_gate(1, 2, 3, 4, theta, ((0, 1),)),))
            check(compile_circuit(ctrl_g4, ZZ_SET), plane_stage(5, "g4", (1, 2, 3, 4), ((0, 1),), theta))

        # fixed-angle bridges between the native two-qubit conventions
        check(compile_circuit(Circuit(2, (cnot_gate(0, 1),)), ZZ_SET), plane_stage(2, "cnot", (0, 1), ()))
        p = np.exp(-1j * math.pi / 4)
        check(compile_circuit(Circuit(2, (zzmax_gate(0, 1),)), CX_SET), np.diag([p, p.conjugate(), p.conjugate(), p]))
        toffoli = Circuit(3, (cnot_gate(1, 2, ((0, 1),)),))
        check(compile_circuit(toffoli, ZZ_SET), plane_stage(3, "cnot", (1, 2), ((0, 1),)))
        cccx = Circuit(4, (cnot_gate(2, 3, ((0, 1), (1, 0))),))
        check(compile_circuit(cccx, ZZ_SET), plane_stage(4, "cnot", (2, 3), ((0, 1), (1, 0))))

        # long-range walk gadget at random angles, native and compiled
        for _ in range(3):
            theta = float(rng.uniform(0.2, 1.3))
            spec = validate_spec([(math.cos(theta), "111000"), (math.sin(theta), "000111")])
            rot = plan_rotations(spec.configs).rotations[0]
            assert rot.swaps
            angle = angles_from_coefficients(spec.coefficients)[0]
            stages = [("swap", step.pair, step.controls) for step in rot.swaps]
            stages += [("g2", rot.targets, rot.controls, angle)]
            stages += [("swap", step.pair, step.controls) for step in reversed(rot.swaps)]
            oracle = stage_product(6, stages)
            circuit = synthesize_gr(spec, include_reference_prep=False)
            check(circuit, oracle)
            check(compile_circuit(circuit, ZZ_SET), oracle)
            # the net effect on the two addressed patterns is the plane rotation
            lead, other = spec.configs[0].index, spec.configs[1].index
            assert abs(abs(oracle[other, lead]) - abs(math.sin(angle))) < 1e-10
            assert abs(abs(oracle[lead, lead]) - abs(math.cos(angle))) < 1e-10

        assert worst < 1e-10


# --- 06: moment and cumulant energy estimates ------------------------------------


def test_06_moment_cumulant_estimates(capsys):
    with criterion(capsys, 6, "moments vs dense powers; cumulant energy estimates"):
        rng = np.random.default_rng(6)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 7))
            h = random_sum(rng, n, int(rng.integers(2, 3 * n + 1)))
            dense = h.matrix()
            dim = dense.shape[0]

            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi /= np.linalg.norm(psi)
            mu = moments(psi, h, 4)
            acc = psi.copy()
            for k in range(4):
                acc = dense @ acc
                assert abs(mu[k] - np.vdot(psi, acc).real) < 1e-9

            vals, vecs = np.linalg.eigh(dense)
            k = int(rng.integers(dim))
            c = cumulants(moments(vecs[:, k], h, 4))
            assert abs(c.c1 - vals[k]) < 1e-9
            assert max(abs(c.c2), abs(c.c3), abs(c.c4)) < 1e-9

            if vals[-1] - vals[0] > 0.1:
                p = float(rng.uniform(0.2, 0.8))
                mix = math.sqrt(p) * vecs[:, 0] + math.sqrt(1 - p) * vecs[:, -1]
                estimate = qcm4(cumulants(moments(mix, h, 4)))
                assert abs(estimate - vals[0]) < 1e-9
            done += 1

        worked = cumulants([0.8, 1.0, 0.8, 1.0])
        assert worked.c1 == pytest.approx(0.8, abs=1e-12)
        assert worked.c2 == pytest.approx(0.36, abs=1e-12)
        assert worked.c3 == pytest.approx(-0.576, abs=1e-12)
        assert worked.c4 == pytest.approx(0.6624, abs=1e-12)
        assert qcm4(worked) == pytest.approx(-1.0, abs=1e-12)
        assert cmx2(worked) == pytest.approx(1.025, abs=1e-12)

        with pytest.raises(DegenerateCumulants):
            qcm4(CumulantSet(0.0, 1.0, 0.0, 1.0))


# --- 07: phase estimation accuracy versus initial overlap ------------------------


def test_07_phase_estimation_overlap_ladder(capsys):
    with criterion(capsys, 7, "phase estimation: accuracy improves with initial overlap"):
        start = time.monotonic()
        rng = np.random.default_rng(2027)
        n = 6
        pairs = []
        for q in range(n):
            pairs.append((float(rng.standard_normal()), "I" * q + "Z" + "I" * (n - q - 1)))
        for i in range(n):
            for j in range(i + 1, n):
                word = ["I"] * n
                word[i] = word[j] = "Z"
                pairs.append((float(rng.standard_normal()) * 0.5, "".join(word)))
        h = PauliSum.from_terms(pairs, n)

        vals, vecs = np.linalg.eigh(h.matrix())
        spread = float(vals[-1] - vals[0])
        tau = 0.45 * 2 * math.pi / spread
        tolerance = 1e-3 * spread
        dim = vals.size

        series = qcels_series(vecs[:, 0], h, tau, 32)
        assert abs(qcels_estimate(series) - vals[0]) < 1e-10

        with pytest.raises(TauTooLarge):
            qcels_series(vecs[:, 0], h, 1.05 * 2 * math.pi / spread, 8)

        contaminant = (
            math.sqrt(0.5) * vecs[:, dim // 4]
            + math.sqrt(0.3) * vecs[:, dim // 2]
            + math.sqrt(0.2) * vecs[:, dim - 3]
        )
        contaminant /= np.linalg.norm(contaminant)

        ladder = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
        fidelities = [0.67, 0.95, 0.999]
        errors = {}
        for f in fidelities:
            psi = math.sqrt(f) * vecs[:, 0] + math.sqrt(1 - f) * contaminant
            psi /= np.linalg.norm(psi)
            errors[f] = [
                abs(qcels_estimate(qcels_series(psi, h, tau, n_samples)) - vals[0])
                for n_samples in ladder
            ]

        slack = 1e-12 * spread
        for k in range(len(ladder)):
            assert errors[0.67][k] >= errors[0.95][k] - slack
            assert errors[0.95][k] >= errors[0.999][k] - slack

        first_accurate = {
            f: next(n_s for n_s, e in zip(ladder, errors[f]) if e <= tolerance)
            for f in fidelities
        }
        assert first_accurate[0.999] < first_accurate[0.95]
        assert time.monotonic() - start < 60.0


# --- 08: variational search reaches the projected ground energy ------------------


def test_08_variational_ground_energy(capsys):
    with criterion(capsys, 8, "variational search matches projected diagonalization"):
        rng = np.random.default_rng(8)
        configs = [OnConfig.from_string(s) for s in ("1100", "1001", "0110", "0011")]
        spec = validate_spec([(0.5, x) for x in configs])
        for _ in range(50):
            h = number_conserving_hamiltonian(rng, 4)
            exact = float(subspace_diag(h, configs)[0])
            energies = {}
            for method in ("gr", "ssp"):
                result = vqe_minimize(h, spec, method)
                assert abs(result.energy - exact) < 1e-6
                energies[method] = result.energy
            assert abs(energies["gr"] - energies["ssp"]) < 1e-6


# --- 09: excited-state matrix from excitation probes ------------------------------


def test_09_excited_state_matrix(capsys):
    with criterion(capsys, 9, "excitation-probe matrix: energies, symmetry, resources"):
        rng = np.random.default_rng(9)
        hf = OnConfig.from_string("1100")
        while True:
            h = spin_conserving_hamiltonian(rng)
            ansatz, values = exact_ground_ansatz(h, hf)
            if ansatz is not None:
                break
        excitations = cisd_excitations(hf)
        expected = values[1:] - values[0]

        for prep in ("gr", "ssp"):
            m = sceom_m_matrix(h, hf, excitations, ansatz, prep_method=prep)
            assert np.max(np.abs(m.values - m.values.T)) < 1e-9
            assert np.allclose(sceom_energies(m.values), expected, atol=1e-6)

        m = sceom_m_matrix(h, hf, excitations, ansatz)
        dense = h.matrix()
        probes = []
        for op in excitations:
            x, sign = apply_excitation(op, hf)
            probes.append((sign, run_circuit(ansatz, basis_state(x))))
        for a in range(len(probes)):
            for b in range(a + 1, len(probes)):
                sa, phi_a = probes[a]
                sb, phi_b = probes[b]
                direct = sa * sb * np.vdot(phi_a, dense @ phi_b).real
                assert abs(m.values[a, b] - direct) < 1e-9

        hf8 = OnConfig.from_string("11110000")
        ops8 = cisd_excitations(hf8)
        rows = sceom_element_resources(hf8, ops8)
        assert rows
        by_distance: dict[int, list[int]] = {}
        for row in rows:
            assert row.ssp_two_qubit <= row.gr_two_qubit
            xa, _ = apply_excitation(ops8[row.i], hf8)
            xb, _ = apply_excitation(ops8[row.j], hf8)
            assert row.pair_distance == hamming(xa, xb)
            by_distance.setdefault(row.pair_distance, []).append(row.gr_two_qubit)
        means = [float(np.mean(by_distance[d])) for d in sorted(by_distance)]
        assert len(means) >= 2
        assert all(a <= b for a, b in zip(means, means[1:]))


# --- 10: degenerate inputs and command-line self-verification ---------------------


def test_10_degenerate_inputs_and_cli_gating(capsys, tmp_path, monkeypatch):
    with criterion(capsys, 10, "zero angles exact; input order invariance; CLI gating"):
        entries = (
            (1.0, OnConfig.from_string("1100")),
            (0.0, OnConfig.from_string("1010")),
        )
        out = run_circuit(synthesize_gr(StateSpec(entries, 4)))
        assert out[OnConfig.from_string("1100").index] == 1.0 + 0.0j
        assert np.count_nonzero(out) == 1

        rng = np.random.default_rng(10)
        base = random_equal_weight_spec(rng, 7, 6)
        reference = run_circuit(synthesize_ssp(base))
        for _ in range(3):
            order = rng.permutation(base.size)
            shuffled = validate_spec([base.entries[k] for k in order])
            amps = run_circuit(synthesize_ssp(shuffled))
            assert np.max(np.abs(amps - reference)) < 1e-12

        spec_path = tmp_path / "state.txt"
        spec_path.write_text("0.8 1100\n0.6 0110\n")
        out_path = tmp_path / "circuit.json"
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(out_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verified"] is True
        assert out_path.exists()

        # With an unreachable bar the same invocation must withhold the artifact.
        monkeypatch.setattr(cli, "SYNTH_FIDELITY", -1.0)
        blocked_path = tmp_path / "blocked.json"
        code = cli.main(["synth", "--spec", str(spec_path), "--out", str(blocked_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["verified"] is False
        assert not blocked_path.exists()
