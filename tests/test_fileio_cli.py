"""Serialization round-trips and command-line reports."""
import json
import math
import random

import numpy as np
import pytest

from mcprep import cli, fileio
from mcprep.circuits import CNOT, G2, PHASEDX, RY, Circuit, Gate
from mcprep.configs import SpecValidationError, cisd_excitations, hartree_fock_config
from mcprep.paulis import PauliSum, PauliWord
from mcprep.simulator import StateVector, exact_spectrum, expectation

SPEC_TEXT = "0.8 1100\n0.6 0110\n"

# Number- and spin-conserving on four interleaved spin orbitals.
HAM_TEXT = """\
-0.50 ZIII
0.25 IZII
-0.125 IIZI
0.30 ZZII
0.20 IZIZ
0.35 XIXI
0.35 YIYI
0.15 IXIX
0.15 IYIY
"""

DIAG_HAM_TEXT = "1.0 ZIII\n0.25 IIZI\n"


def run_cli(capsys, argv):
    """Invoke the entry point, returning (exit code, parsed report, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_hamiltonian_text_round_trip():
    h = PauliSum.from_terms(
        [
            (1 / 3, PauliWord.from_string("XZYI")),
            (-2.7182818284590451e-05, PauliWord.from_string("IIII")),
            (0.1 + 0.2, PauliWord.from_string("YYXZ")),
        ],
        4,
    )
    again = fileio.parse_hamiltonian(fileio.render_hamiltonian(h))
    assert {str(w): c for c, w in again.terms()} == {str(w): c for c, w in h.terms()}


def test_parse_hamiltonian_merges_repeats_and_comments():
    text = "# header\n0.5 XZ  # inline note\n\n0.25 XZ\n-1 IZ\n"
    h = fileio.parse_hamiltonian(text)
    coeffs = {str(w): c for c, w in h.terms()}
    assert coeffs == {"XZ": 0.75, "IZ": -1.0}


def test_parse_hamiltonian_unicode_minus():
    h = fileio.parse_hamiltonian("−0.5 ZZ\n1e−2 XX\n")
    coeffs = {str(w): c for c, w in h.terms()}
    assert coeffs["ZZ"] == -0.5
    assert coeffs["XX"] == 0.01


def test_parse_hamiltonian_errors_carry_line_numbers():
    with pytest.raises(fileio.ParseError, match="line 3: expected 'coefficient word'"):
        fileio.parse_hamiltonian("# c\n0.5 XX\nbad\n")
    with pytest.raises(fileio.ParseError, match="line 1: coefficient 'q'"):
        fileio.parse_hamiltonian("q XX\n")
    with pytest.raises(fileio.ParseError, match="line 2:.*letter"):
        fileio.parse_hamiltonian("0.5 XX\n0.5 XQ\n")
    with pytest.raises(fileio.ParseError, match="line 2:.*earlier lines have 2"):
        fileio.parse_hamiltonian("0.5 XX\n0.5 XXX\n")
    with pytest.raises(fileio.ParseError, match="no operator terms"):
        fileio.parse_hamiltonian("# nothing\n")
    with pytest.raises(fileio.ParseError, match="line 2: coefficient 'nan' is not finite"):
        fileio.parse_hamiltonian("0.5 ZIII\nnan IZII\n")
    with pytest.raises(fileio.ParseError, match="line 1: coefficient '-inf' is not finite"):
        fileio.parse_hamiltonian("-inf XX\n")


def test_parse_state_spec_orders_largest_first_by_default():
    spec = fileio.parse_state_spec("0.6 01\n0.8 10\n")
    assert [str(x) for x in spec.configs] == ["10", "01"]
    assert spec.coefficients[0] == pytest.approx(0.8, abs=1e-15)


def test_parse_state_spec_ordered_header_preserves_file_order():
    spec = fileio.parse_state_spec("ordered\n0.6 01\n0.8 10\n")
    assert [str(x) for x in spec.configs] == ["01", "10"]


def test_state_spec_round_trip_is_exact():
    # Coefficients with unit norm in floating point survive renormalization.
    text = "ordered\n0.5 1100\n0.5 1010\n-0.5 0110\n0.5 0011\n"
    spec = fileio.parse_state_spec(text)
    again = fileio.parse_state_spec(fileio.render_state_spec(spec))
    assert again.entries == spec.entries
    assert again.n_q == spec.n_q


def test_parse_state_spec_unicode_minus():
    spec = fileio.parse_state_spec("ordered\n−0.6 01\n0.8 10\n")
    assert spec.coefficients[0] == pytest.approx(-0.6, abs=1e-15)


def test_parse_state_spec_errors():
    with pytest.raises(fileio.ParseError, match="line 1: expected 'coefficient bitstring'"):
        fileio.parse_state_spec("0.5\n")
    with pytest.raises(fileio.ParseError, match="non-binary"):
        fileio.parse_state_spec("0.5 10x0\n")
    with pytest.raises(fileio.ParseError, match="no state entries"):
        fileio.parse_state_spec("ordered\n")
    with pytest.raises(SpecValidationError):
        fileio.parse_state_spec("0.8 10\n0.6 011\n")
    # Dropping the nan line would leave a valid normalized spec behind.
    with pytest.raises(fileio.ParseError, match="line 1: coefficient 'nan' is not finite"):
        fileio.parse_state_spec("nan 1100\n1.0 0110\n")


def test_circuit_json_round_trip():
    c = Circuit(
        3,
        (
            Gate("X", (0,)),
            Gate(RY, (1,), ((0, 1),), (math.pi / 2,)),
            Gate(PHASEDX, (2,), (), (math.pi / 4, "beta")),
            Gate(G2, (0, 2), (), ("theta_1",)),
            Gate(CNOT, (2, 1), ((0, 0),)),
        ),
    )
    again = fileio.circuit_from_json(fileio.circuit_to_json(c))
    assert again.n_qubits == c.n_qubits
    for got, want in zip(again.gates, c.gates):
        assert (got.kind, got.targets, got.controls) == (want.kind, want.targets, want.controls)
        for a, b in zip(got.params, want.params):
            if isinstance(b, str):
                assert a == b
            else:
                assert a == pytest.approx(b, rel=1e-15)


def test_circuit_json_angles_are_in_units_of_pi():
    doc = {
        "schema": fileio.CIRCUIT_SCHEMA,
        "n_qubits": 1,
        "gates": [{"kind": RY, "targets": [0], "angle": 0.5}],
    }
    c = fileio.circuit_from_json(json.dumps(doc))
    assert c.gates[0].params[0] == 0.5 * math.pi

    rendered = json.loads(fileio.circuit_to_json(Circuit(1, (Gate(RY, (0,), (), (math.pi / 2,)),))))
    assert rendered["schema"] == fileio.CIRCUIT_SCHEMA
    assert rendered["gates"][0]["angle"] == 0.5


def test_circuit_json_rejections():
    good = {"schema": fileio.CIRCUIT_SCHEMA, "n_qubits": 2, "gates": []}

    with pytest.raises(fileio.ParseError, match="invalid JSON"):
        fileio.circuit_from_json("{")
    with pytest.raises(fileio.ParseError, match="'n_qubits' and 'gates'"):
        fileio.circuit_from_json(json.dumps({"gates": []}))
    with pytest.raises(fileio.ParseError, match="unsupported schema"):
        fileio.circuit_from_json(json.dumps({**good, "schema": "mcprep/circuit/9"}))

    def bad_gate(entry, message):
        doc = {**good, "gates": [{"kind": "X", "targets": [0]}, entry]}
        with pytest.raises(fileio.ParseError, match=message):
            fileio.circuit_from_json(json.dumps(doc))

    bad_gate({"kind": "Q", "targets": [0]}, "gate 1: unknown kind 'Q'")
    bad_gate({"kind": "X", "targets": [0], "angle": 1.0}, "gate 1: X takes no angle")
    bad_gate({"kind": RY, "targets": [0]}, "gate 1: Ry needs an angle")
    bad_gate({"kind": RY, "targets": [0], "angle": True}, "number or a name")
    bad_gate({"kind": PHASEDX, "targets": [0], "angle": [0.5]}, "list of 2 angles")
    bad_gate({"kind": RY, "targets": [1], "angle": math.nan}, "gate 1: angle nan is not finite")
    bad_gate({"kind": PHASEDX, "targets": [0], "angle": [0.5, -math.inf]}, "gate 1: angle -inf")
    bad_gate({"kind": CNOT, "targets": [0, 1], "controls": [[0, 1]]}, "gate 1:")
    # Wires, control states and n_qubits are JSON integers; fields keep their shapes.
    bad_gate({"kind": [1], "targets": [0]}, r"gate 1: unknown kind \[1\]")
    bad_gate({"kind": "X", "targets": 0}, "gate 1: targets 0 must be a list of integers")
    bad_gate({"kind": "X", "targets": [0.5]}, r"gate 1: targets \[0.5\] must be")
    bad_gate({"kind": "X", "targets": [True]}, r"gate 1: targets \[True\] must be")
    bad_gate({"kind": "X", "targets": [1], "controls": 5}, "gate 1: controls 5 must be")
    bad_gate({"kind": "X", "targets": [1], "controls": [5]}, r"gate 1: controls \[5\] must be")
    bad_gate({"kind": "X", "targets": [1], "controls": [[0, 0.5]]}, r"gate 1: control \[0, 0.5\]")
    bad_gate({"kind": "X", "targets": [1], "controls": [[0, 1, 1]]}, "gate 1: controls")
    for n_qubits in ([2], 2.7, True):
        with pytest.raises(fileio.ParseError, match="n_qubits .* must be an integer"):
            fileio.circuit_from_json(json.dumps({**good, "n_qubits": n_qubits}))
    with pytest.raises(fileio.ParseError, match="'gates' must be a list"):
        fileio.circuit_from_json(json.dumps({**good, "gates": 7}))
    doc = {**good, "gates": [{"kind": "X", "targets": [5]}]}
    with pytest.raises(fileio.ParseError):  # wire out of range
        fileio.circuit_from_json(json.dumps(doc))


def test_circuit_json_fuzzed_field_types_parse_or_raise_parse_error():
    rng = random.Random(17)
    base = {
        "schema": fileio.CIRCUIT_SCHEMA,
        "n_qubits": 4,
        "gates": [
            {"kind": "X", "targets": [0]},
            {"kind": PHASEDX, "targets": [1], "angle": [0.5, "b"]},
            {"kind": G2, "targets": [1, 2], "controls": [[0, 1], [3, 0]], "angle": 0.25},
            {"kind": "G4", "targets": [0, 1, 2, 3], "angle": "a"},
        ],
    }
    values = [None, True, False, 0, 1, 3, -1, 0.5, 2.7, 1e300, "X", "a", [], [0], [0.5],
              [True], [[0, 1]], [[0, 0.5]], [5], {}, {"kind": "X"}]

    def slots(node):
        """Every (container, key) in the document, the root excluded."""
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield node, key
            if isinstance(child, (dict, list)):
                yield from slots(child)

    for _ in range(600):
        doc = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 3)):
            container, key = rng.choice(list(slots(doc)))
            container[key] = json.loads(json.dumps(rng.choice(values)))
        try:
            circuit = fileio.circuit_from_json(json.dumps(doc))
        except fileio.ParseError:
            continue
        assert isinstance(circuit, Circuit)


def test_cli_synth_verify_chain(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    out_path = str(tmp_path / "circuit.json")

    code, report, _ = run_cli(
        capsys, ["synth", "--spec", spec_path, "--method", "ssp", "--out", out_path]
    )
    assert code == 0
    assert report["schema"] == "mcprep/1"
    assert report["command"] == "synth"
    assert report["verified"] is True
    assert report["fidelity"] >= 1 - 1e-9
    assert report["circuit_file"] == out_path
    assert json.loads((tmp_path / "circuit.json").read_text())["schema"] == "mcprep/circuit/1"

    code, report, _ = run_cli(capsys, ["verify", "--spec", spec_path, "--circuit", out_path])
    assert code == 0
    assert report["verified"] is True


def test_cli_synth_withholds_artifact_when_verification_fails(tmp_path, capsys, monkeypatch):
    # An impossible fidelity bar forces the self-check to fail.
    monkeypatch.setattr(cli, "SYNTH_FIDELITY", -1.0)
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    out_path = tmp_path / "circuit.json"

    code, report, _ = run_cli(capsys, ["synth", "--spec", spec_path, "--out", str(out_path)])
    assert code == 1
    assert report["verified"] is False
    assert "circuit_file" not in report
    assert not out_path.exists()


def test_cli_synth_batch(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    (spec_dir / "a.txt").write_text(SPEC_TEXT)
    (spec_dir / "b.txt").write_text("0.5774 101\n-0.5774 110\n0.5774 011\n")
    out_dir = tmp_path / "out"

    code, report, _ = run_cli(
        capsys, ["synth", "--spec-dir", str(spec_dir), "--out", str(out_dir)]
    )
    assert code == 0
    assert report["verified"] is True
    assert [r["spec"] for r in report["results"]] == [
        str(spec_dir / "a.txt"),
        str(spec_dir / "b.txt"),
    ]
    assert (out_dir / "a.circuit.json").exists()
    assert (out_dir / "b.circuit.json").exists()


def test_cli_synth_batch_withholds_artifacts_on_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SYNTH_FIDELITY", -1.0)
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    (spec_dir / "a.txt").write_text(SPEC_TEXT)
    out_dir = tmp_path / "out"

    code, report, _ = run_cli(
        capsys, ["synth", "--spec-dir", str(spec_dir), "--out", str(out_dir)]
    )
    assert code == 1
    assert report["verified"] is False
    assert not list(out_dir.glob("*.json"))


def test_cli_verify_rejects_wrong_state(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    other_path = write(tmp_path, "other.txt", "1 1010\n")
    out_path = str(tmp_path / "circuit.json")
    run_cli(capsys, ["synth", "--spec", other_path, "--out", out_path])

    code, report, _ = run_cli(capsys, ["verify", "--spec", spec_path, "--circuit", out_path])
    assert code == 1
    assert report["verified"] is False
    assert report["fidelity"] < 0.5


def test_cli_verify_rejects_unbound_parameters(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    doc = {
        "schema": fileio.CIRCUIT_SCHEMA,
        "n_qubits": 4,
        "gates": [{"kind": RY, "targets": [0], "angle": "theta"}],
    }
    circuit_path = write(tmp_path, "free.json", json.dumps(doc))

    code, report, err = run_cli(capsys, ["verify", "--spec", spec_path, "--circuit", circuit_path])
    assert code == 1
    assert report is None
    assert err.startswith("error: circuit has unbound parameters")


def test_cli_resources_reports_both_methods(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    code, report, _ = run_cli(capsys, ["resources", "--spec", spec_path, "--method", "both"])
    assert code == 0
    assert set(report["methods"]) == {"gr", "ssp"}
    for counts in report["methods"].values():
        assert {"n_gates", "two_qubit", "depth", "by_kind"} <= set(counts)
        assert counts["two_qubit"] >= 0


def test_cli_moments(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, _ = run_cli(
        capsys, ["moments", "--spec", spec_path, "--hamiltonian", ham_path]
    )
    assert code == 0
    assert len(report["moments"]) == 4
    assert set(report["cumulants"]) == {"c1", "c2", "c3", "c4"}
    assert report["cumulants"]["c2"] >= -1e-12
    # Estimates are either numbers or null with a recorded reason.
    assert (report["qcm4"] is None) == ("qcm4_skipped" in report)
    assert (report["cmx2"] is None) == ("cmx2_skipped" in report)


def test_cli_moments_rejects_width_mismatch(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    ham_path = write(tmp_path, "h.txt", "1.0 ZZ\n")
    code, report, err = run_cli(
        capsys, ["moments", "--spec", spec_path, "--hamiltonian", ham_path]
    )
    assert code == 1
    assert report is None
    assert "error: operator acts on 2 qubits" in err


def test_cli_qcels_recovers_diagonal_eigenvalue(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", "1 1100\n")
    ham_path = write(tmp_path, "h.txt", DIAG_HAM_TEXT)
    # |1100> holds eigenvalue -1.0 + 0.25 = -0.75 of the diagonal operator.
    code, report, _ = run_cli(
        capsys,
        ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--tau", "1.0",
         "--samples", "24"],
    )
    assert code == 0
    assert report["estimate"] == pytest.approx(-0.75, abs=1e-9)


def test_cli_qcels_rejects_aliasing_step(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", "1 1100\n")
    ham_path = write(tmp_path, "h.txt", DIAG_HAM_TEXT)
    code, report, err = run_cli(
        capsys, ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--tau", "10"]
    )
    assert code == 1
    assert report is None
    assert err.startswith("error: step 10")


def test_cli_qcels_reports_unconverged_spectral_range(tmp_path, capsys, monkeypatch):
    # Above 10 qubits the spectral range comes from eigsh, whose
    # non-convergence must end in the error contract, not a traceback.
    import scipy.sparse.linalg

    def unconverged(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", unconverged)
    spec_path = write(tmp_path, "state.txt", "1 11000000000\n")
    ham_path = write(tmp_path, "h.txt", "1.0 ZIIIIIIIIII\n0.5 XXIIIIIIIII\n")
    code, report, err = run_cli(
        capsys, ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--tau", "0.1"]
    )
    assert code == 1
    assert report is None
    assert err.startswith("error: spectral range of the 11-qubit operator did not converge")


def test_cli_qcels_requires_tau(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["qcels", "--spec", "s", "--hamiltonian", "h"])
    capsys.readouterr()


def test_cli_vqe_respects_variational_bound(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, _ = run_cli(
        capsys,
        ["vqe", "--spec", spec_path, "--hamiltonian", ham_path, "--restarts", "1"],
    )
    assert code == 0
    assert report["energy"] >= report["exact_ground"] - 1e-9
    assert report["error_vs_exact"] == pytest.approx(
        report["energy"] - report["exact_ground"], abs=1e-12
    )
    assert isinstance(report["parameters"], dict)
    assert report["restarts_used"] >= 1


def test_cli_sceom(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, _ = run_cli(
        capsys,
        ["sceom", "--hamiltonian", ham_path, "--orbitals", "2", "--electrons", "2",
         "--element-resources"],
    )
    assert code == 0
    assert report["reference"] == "1100"
    assert report["n_excitations"] == len(cisd_excitations(hartree_fock_config(2, 2)))

    m = np.array(report["m_matrix"])
    assert np.allclose(m, m.T, atol=1e-9)
    energies = report["excitation_energies"]
    assert energies == sorted(energies)

    hf_state = StateVector.from_spec(fileio.parse_state_spec("1 1100\n"))
    h = fileio.parse_hamiltonian(HAM_TEXT)
    assert report["ground_energy"] == pytest.approx(expectation(hf_state, h), abs=1e-12)

    for element in report["elements"]:
        assert {"i", "j", "pair_distance", "gr_two_qubit", "ssp_two_qubit"} <= set(element)
        assert element["ssp_two_qubit"] <= element["gr_two_qubit"]


def test_cli_sceom_with_ansatz_file(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    bound = {
        "schema": fileio.CIRCUIT_SCHEMA,
        "n_qubits": 4,
        "gates": [{"kind": G2, "targets": [0, 2], "angle": 0.1}],
    }
    ansatz_path = write(tmp_path, "ansatz.json", json.dumps(bound))
    code, report, _ = run_cli(
        capsys,
        ["sceom", "--hamiltonian", ham_path, "--orbitals", "2", "--electrons", "2",
         "--ansatz", ansatz_path],
    )
    assert code == 0
    hf_state = StateVector.from_spec(fileio.parse_state_spec("1 1100\n"))
    h = fileio.parse_hamiltonian(HAM_TEXT)
    # The rotation moves the reference, so the reported energy must differ.
    assert abs(report["ground_energy"] - expectation(hf_state, h)) > 1e-6

    free = {**bound, "gates": [{"kind": G2, "targets": [0, 2], "angle": "t0"}]}
    free_path = write(tmp_path, "free.json", json.dumps(free))
    code, report, err = run_cli(
        capsys,
        ["sceom", "--hamiltonian", ham_path, "--orbitals", "2", "--electrons", "2",
         "--ansatz", free_path],
    )
    assert code == 1
    assert "unbound parameters" in err


def test_cli_sceom_rejects_width_mismatch(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, err = run_cli(
        capsys, ["sceom", "--hamiltonian", ham_path, "--orbitals", "3", "--electrons", "2"]
    )
    assert code == 1
    assert "3 orbitals give 6 qubits" in err


def test_cli_spectrum(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, _ = run_cli(capsys, ["spectrum", "--hamiltonian", ham_path, "--count", "3"])
    assert code == 0
    assert len(report["lowest"]) == 3
    exact = exact_spectrum(fileio.parse_hamiltonian(HAM_TEXT)).values[:3]
    assert np.allclose(report["lowest"], exact, atol=1e-12)


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", "0.6 1100\n0.8 0110\n")
    nan_angle = json.dumps({
        "schema": fileio.CIRCUIT_SCHEMA,
        "n_qubits": 4,
        "gates": [{"kind": "X", "targets": [0]}, {"kind": RY, "targets": [1], "angle": math.nan}],
    })
    cases = [
        (["synth", "--spec", write(tmp_path, "nan.txt", "nan 1100\n1.0 0110\n")], "line 1"),
        (["moments", "--spec", spec_path, "--hamiltonian",
          write(tmp_path, "h.txt", "0.5 ZIII\nnan IZII\n0.5 IIZI\n")], "line 2"),
        (["verify", "--spec", spec_path, "--circuit", write(tmp_path, "c.json", nan_angle)],
         "gate 1"),
    ]
    for argv, where in cases:
        code, report, err = run_cli(capsys, argv)
        assert code == 1
        assert report is None
        assert err.startswith(f"error: {where}:") and "not finite" in err


def test_cli_reports_missing_file_as_user_error(tmp_path, capsys):
    code, report, err = run_cli(capsys, ["synth", "--spec", str(tmp_path / "missing.txt")])
    assert code == 1
    assert report is None
    assert err.startswith("error:")
