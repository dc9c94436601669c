"""Serialization round-trips and command-line reports."""
import json
import math
import random
import re

import numpy as np
import pytest

from mcprep import algorithms, cli, fileio
from mcprep.algorithms import MAX_QCELS_SAMPLES
from mcprep.algorithms import synthesize
from mcprep.circuits import CNOT, G2, PHASEDX, RY, Circuit, Gate, compile_circuit, gateset_by_name
from mcprep.configs import SpecValidationError, cisd_excitations, hartree_fock_config
from mcprep.paulis import PauliWord
from mcprep.simulator import exact_spectrum, expectation, spec_state

from tests.test_circuits import CISD_SIZES, cisd_spec, corpus_specs, random_circuit

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


def word_matrix(letters: str) -> np.ndarray:
    return PauliWord.from_string(letters).matrix()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_hamiltonian_merges_repeats_and_comments():
    text = "# header\n0.5 XZ  # inline note\n\n0.25 XZ\n-1 IZ\n"
    h = fileio.parse_hamiltonian(text)
    assert h.n_terms == 2
    assert np.array_equal(h.matrix(), 0.75 * word_matrix("XZ") - word_matrix("IZ"))


def test_parse_hamiltonian_unicode_minus():
    h = fileio.parse_hamiltonian("−0.5 ZZ\n1e−2 XX\n")
    assert h.n_terms == 2
    assert np.array_equal(h.matrix(), -0.5 * word_matrix("ZZ") + 0.01 * word_matrix("XX"))


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
            Gate(PHASEDX, (2,), (), (math.pi / 4, -0.3)),
            Gate(G2, (0, 2), (), (1.25,)),
            Gate(CNOT, (2, 1), ((0, 0),)),
        ),
    )
    again = fileio.circuit_from_json(fileio.circuit_to_json(c))
    assert again.n_qubits == c.n_qubits
    for got, want in zip(again.gates, c.gates):
        assert (got.kind, got.targets, got.controls) == (want.kind, want.targets, want.controls)
        for a, b in zip(got.params, want.params):
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


def json_dumps_reference(c: Circuit) -> str:
    """The circuit file as json.dumps(doc, indent=2) writes it."""
    gates = []
    for g in c.gates:
        entry: dict = {"kind": g.kind, "targets": list(g.targets)}
        if g.controls:
            entry["controls"] = [[q, s] for q, s in g.controls]
        turns = [float(p) / math.pi for p in g.params]
        if len(turns) == 1:
            entry["angle"] = turns[0]
        elif turns:
            entry["angle"] = turns
        gates.append(entry)
    doc = {"schema": fileio.CIRCUIT_SCHEMA, "n_qubits": c.n_qubits, "gates": gates}
    return json.dumps(doc, indent=2) + "\n"


def through_file(c: Circuit) -> Circuit:
    """The circuit a file round trip gives: angles pass through units of pi."""
    gates = tuple(
        Gate(g.kind, g.targets, g.controls, tuple(float(p) / math.pi * math.pi for p in g.params))
        for g in c.gates
    )
    return Circuit(c.n_qubits, gates)


def emitter_corpus():
    """Raw and compiled circuits of the acceptance specs and CISD(3,2) to
    (6,6), and random circuits with signed-zero, subnormal, tiny and huge
    angles."""
    # CISD(6,6) gr compiles to 274,000 (cx) and 440,000 (zz) gates, about 20 s
    # with the reference encoder, so only its raw circuit is checked.
    specs = corpus_specs((*CISD_SIZES, (6, 6)))
    for index, spec in enumerate(specs):
        for method in ("gr", "ssp"):
            raw = synthesize(spec, method)
            yield raw
            if method == "gr" and index == len(specs) - 1:
                continue
            for name in ("cx", "zz"):
                yield compile_circuit(raw, gateset_by_name(name))
    rng = np.random.default_rng(71)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e-13, -1e-13, 1e300, -1e300, math.pi, 2.5]
    for _ in range(200):
        c = random_circuit(rng, int(rng.integers(2, 6)), int(rng.integers(0, 12)))
        yield Circuit(c.n_qubits, tuple(
            Gate(g.kind, g.targets, g.controls,
                 tuple(float(rng.choice(specials)) if rng.random() < 0.7 else p for p in g.params))
            for g in c.gates
        ))


def test_circuit_to_json_writes_what_json_dumps_writes():
    for c in emitter_corpus():
        text = fileio.circuit_to_json(c)
        assert text == json_dumps_reference(c)
        assert fileio.circuit_from_json(text) == through_file(c)
        # synth simulates as_written(c): the angles of the file, bit for bit,
        # and a file of them is the same bytes.
        written = fileio.as_written(c)
        assert repr(written) == repr(fileio.circuit_from_json(text))
        assert fileio.circuit_to_json(written) == text


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
    bad_gate({"kind": RY, "targets": [0], "angle": True}, "gate 1: angle True must be a number")
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

    def bad_register(n_qubits, gates, message):
        doc = {**good, "n_qubits": n_qubits, "gates": gates}
        with pytest.raises(fileio.ParseError, match=f"^{re.escape(message)}$"):
            fileio.circuit_from_json(json.dumps(doc))

    bad_register(2, [{"kind": "X", "targets": [5]}], "gate wires [5] outside register of 2")
    bad_register(2, [{"kind": "X", "targets": [-1]}], "gate wires [-1] outside register of 2")
    # The message names the first gate out of range, whatever shapes come before or after.
    gates = [
        {"kind": "X", "targets": [0]},
        {"kind": CNOT, "targets": [0, 1]},
        {"kind": RY, "targets": [1], "angle": 0.5},
        {"kind": CNOT, "targets": [1, 3], "controls": [[0, 1]]},
        {"kind": "X", "targets": [0]},
        {"kind": RY, "targets": [1], "angle": 0.25},
        {"kind": "X", "targets": [1], "controls": [[4, 1]]},
        {"kind": CNOT, "targets": [1, 3], "controls": [[0, 1]]},
    ]
    bad_register(2, gates, "gate wires [3] outside register of 2")
    bad_register(2, gates[:3] + gates[6:], "gate wires [4] outside register of 2")
    for n_qubits in (0, -1):
        for gates in ([], [{"kind": "X", "targets": [0]}]):
            bad_register(n_qubits, gates, "circuit needs at least one qubit")


def test_circuit_json_fuzzed_field_types_parse_or_raise_parse_error():
    rng = random.Random(17)
    base = {
        "schema": fileio.CIRCUIT_SCHEMA,
        "n_qubits": 4,
        "gates": [
            {"kind": "X", "targets": [0]},
            {"kind": PHASEDX, "targets": [1], "angle": [0.5, -0.75]},
            {"kind": G2, "targets": [1, 2], "controls": [[0, 1], [3, 0]], "angle": 0.25},
            {"kind": "G4", "targets": [0, 1, 2, 3], "angle": 1.5},
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


def test_cli_synth_reports_the_fidelity_verify_reports(tmp_path, capsys):
    # The file stores angles in units of pi, so 414 of the 7,145 angles of
    # this CISD(4,4) gr/cx circuit read back one rounding step off; synth
    # simulates the angles as read back, and both report one fidelity.
    spec = cisd_spec(4, 4)
    spec_path = write(tmp_path, "cisd44.txt", "".join(f"{a!r} {x}\n" for a, x in spec.entries))
    out_path = str(tmp_path / "circuit.json")
    argv = ["synth", "--spec", spec_path, "--method", "gr", "--gateset", "cx", "--out", out_path]
    code, synth, _ = run_cli(capsys, argv)
    assert code == 0
    code, verify, _ = run_cli(capsys, ["verify", "--spec", spec_path, "--circuit", out_path])
    assert code == 0
    assert synth["fidelity"].hex() == verify["fidelity"].hex()


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


def test_cli_synth_batch_rejects_directory_without_specs(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    code, report, err = run_cli(capsys, ["synth", "--spec-dir", str(spec_dir)])
    assert code == 1
    assert report is None
    assert err == f"error: no spec files in {spec_dir}\n"


def test_cli_synth_batch_rejects_specs_that_share_a_circuit_file(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    (spec_dir / "a.txt").write_text(SPEC_TEXT)
    (spec_dir / "a.spec").write_text("0.5774 101\n-0.5774 110\n0.5774 011\n")
    out_dir = tmp_path / "out"
    argv = ["synth", "--spec-dir", str(spec_dir), "--out", str(out_dir)]
    code, report, err = run_cli(capsys, argv)
    assert code == 1
    assert report is None
    assert err == (f"error: spec files {spec_dir / 'a.spec'} and {spec_dir / 'a.txt'} "
                   "would both write a.circuit.json\n")
    assert not out_dir.exists()
    # Without --out no file is written, so both specs are reported.
    code, report, _ = run_cli(capsys, ["synth", "--spec-dir", str(spec_dir)])
    assert code == 0
    assert len(report["results"]) == 2


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
    assert err == "error: gate 0: angle 'theta' must be a number\n"


@pytest.mark.parametrize("entry, message", [
    # A misspelled "controls" would otherwise leave an uncontrolled X.
    ({"kind": "X", "targets": [1], "control": [[0, 1]]}, "gate 0: unknown field 'control'"),
    ({"kind": "X", "targets": [1], "angle": None}, "gate 0: X takes no angle"),
    ({"kind": "Ry", "targets": [0], "angle": "theta"}, "gate 0: angle 'theta' must be a number"),
])
def test_cli_verify_rejects_unknown_fields_and_stray_angles(tmp_path, capsys, entry, message):
    spec_path = write(tmp_path, "state.txt", "1.0 0100\n")
    doc = {"schema": fileio.CIRCUIT_SCHEMA, "n_qubits": 4, "gates": [entry]}
    circuit_path = write(tmp_path, "circuit.json", json.dumps(doc))

    code = cli.main(["verify", "--spec", spec_path, "--circuit", circuit_path])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def six_qubit_circuit(tmp_path):
    doc = {"schema": fileio.CIRCUIT_SCHEMA, "n_qubits": 6, "gates": [{"kind": "X", "targets": [5]}]}
    return write(tmp_path, "six.json", json.dumps(doc))


def test_cli_verify_rejects_a_circuit_on_another_register(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    code, report, err = run_cli(
        capsys, ["verify", "--spec", spec_path, "--circuit", six_qubit_circuit(tmp_path)]
    )
    assert (code, report, err) == (1, None, "error: circuit acts on 6 qubits but the state has 4\n")


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


def test_cli_moments_reports_a_skipped_estimate(tmp_path, capsys):
    # XX + YY on |10>: moments (0, 4, 0, 16), so c3 = 0 and cmx2 cannot divide.
    spec_path = write(tmp_path, "state.txt", "1.0 10\n")
    ham_path = write(tmp_path, "h.txt", "1.0 XX\n1.0 YY\n")
    code, report, err = run_cli(
        capsys, ["moments", "--spec", spec_path, "--hamiltonian", ham_path]
    )
    assert (code, err) == (0, "")
    assert list(report["cumulants"].values()) == [0.0, 4.0, 0.0, -32.0]
    assert report["qcm4"] == -2.0
    assert "qcm4_skipped" not in report
    assert report["cmx2"] is None
    assert report["cmx2_skipped"] == "third cumulant 0.000e+00 too small"


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


def test_cli_qcels_does_not_alias_a_lopsided_spectrum(tmp_path, capsys):
    # Eigenvalues -1, -1, -1 and 3: at tau = 1.2 the energy 3 of |11> used to
    # come back as its alias 3 - 2 pi/1.2 = -2.236.
    spec_path = write(tmp_path, "state.txt", "1.0 11\n")
    ham_path = write(tmp_path, "h.txt", "-1 ZI\n-1 IZ\n1 ZZ\n")
    argv = ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--samples", "32"]
    for tau in ("0.7", "1.2"):
        code, report, _ = run_cli(capsys, [*argv, "--tau", tau])
        assert code == 0
        assert report["estimate"] == pytest.approx(3.0, abs=1e-9)


def test_cli_qcels_checks_the_step_against_the_touched_block(tmp_path, capsys):
    # ZZ + (XX + YY)/2 has eigenvalues -2, 0 on the one-particle block and 1,
    # 1 outside it: the whole spread is 3, the block's 2. The singlet of the
    # block, at -2, accepts a step between 2 pi/3 and 2 pi/2 and rejects one
    # at or above 2 pi/2, naming the step and the range it checked.
    amp = "0.7071067811865476"
    spec_path = write(tmp_path, "state.txt", f"{amp} 10\n-{amp} 01\n")
    ham_path = write(tmp_path, "h.txt", "1 ZZ\n0.5 XX\n0.5 YY\n")
    argv = ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--samples", "32"]
    code, report, _ = run_cli(capsys, [*argv, "--tau", "2.5"])
    assert code == 0
    assert report["estimate"] == pytest.approx(-2.0, abs=1e-9)
    assert report["exact_ground"] == pytest.approx(-2.0, abs=1e-12)
    code, report, err = run_cli(capsys, [*argv, "--tau", "3.2"])
    assert code == 1
    assert report is None
    assert err.startswith("error: step 3.2 aliases the energy range 2 of the blocks the state touches")


def test_cli_qcels_rejects_unresolvable_step(tmp_path, capsys):
    # The estimate's bisection cannot shrink a bracket of 4 pi / (10 N tau)
    # to its stop in 80 halvings for tau = 1e-300, which used to report an
    # estimate of -6.5e274; tau = 1e-9 still resolves the eigenvalue.
    spec_path = write(tmp_path, "state.txt", "1 1100\n")
    ham_path = write(tmp_path, "h.txt", DIAG_HAM_TEXT)
    argv = ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--samples", "8"]
    code, report, err = run_cli(capsys, [*argv, "--tau", "1e-300"])
    assert code == 1
    assert report is None
    assert err.startswith("error: step 1e-300 with 8 samples is too small")
    code, report, _ = run_cli(capsys, [*argv, "--tau", "1e-9"])
    assert code == 0
    assert report["estimate"] == pytest.approx(-0.75, abs=1e-9)


def test_cli_qcels_rejects_flat_objective(tmp_path, capsys):
    # An equal superposition of the eigenvalues +-2 sampled twice at pi/4 has
    # a constant objective, so no estimate is better than any other.
    amp = "0.7071067811865476"
    spec_path = write(tmp_path, "state.txt", f"{amp} 10\n{amp} 01\n")
    ham_path = write(tmp_path, "h.txt", "1 ZI\n-1 IZ\n")
    code, report, err = run_cli(
        capsys,
        ["qcels", "--spec", spec_path, "--hamiltonian", ham_path,
         "--tau", "0.7853981633974483", "--samples", "2"],
    )
    assert code == 1
    assert report is None
    assert err.startswith("error: QCELS objective has no peak")


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


def test_cli_qcels_rejects_a_register_above_the_evolution_budget_at_once(tmp_path, capsys, monkeypatch):
    # A 15-qubit operator used to spend its eigsh calls before evolve refused
    # the register; the same error now comes first.
    def no_range(h):
        raise AssertionError("spectral range computed for a register evolve rejects")

    monkeypatch.setattr(algorithms, "_spectral_range", no_range)
    spec_path = write(tmp_path, "state.txt", "1 110000000000000\n")
    ham_path = write(tmp_path, "h.txt", "1.0 ZIIIIIIIIIIIIII\n0.5 XXIIIIIIIIIIIII\n")
    code, report, err = run_cli(
        capsys, ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--tau", "0.1"]
    )
    assert code == 1
    assert report is None
    assert err == "error: 15 qubits exceeds evolution budget 14\n"


def test_cli_qcels_caps_samples(tmp_path, capsys):
    # The dense path holds a samples x 2^n array, so an unbounded count
    # exhausts memory; the cap must end in the error contract.
    spec_path = write(tmp_path, "state.txt", "1 1100\n")
    ham_path = write(tmp_path, "h.txt", DIAG_HAM_TEXT)
    argv = ["qcels", "--spec", spec_path, "--hamiltonian", ham_path, "--tau", "1.0"]
    for samples in (MAX_QCELS_SAMPLES + 1, 100_000_000):
        code, report, err = run_cli(capsys, [*argv, "--samples", str(samples)])
        assert code == 1
        assert report is None
        assert err.startswith(f"error: samples must run from 2 to {MAX_QCELS_SAMPLES}")
    code, report, _ = run_cli(capsys, [*argv, "--samples", str(MAX_QCELS_SAMPLES)])
    assert code == 0
    assert report["estimate"] == pytest.approx(-0.75, abs=1e-9)


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
    assert report["stop_reason"] in ("gradient", "decrease", "line search")


def test_cli_vqe_reports_the_iteration_limit(tmp_path, capsys):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, _ = run_cli(
        capsys,
        ["vqe", "--spec", spec_path, "--hamiltonian", ham_path, "--maxiter", "1"],
    )
    assert code == 0
    assert report["stop_reason"] == "maxiter"


@pytest.mark.parametrize(
    "method, flag, value",
    [("ssp", "--restarts", "0"), ("gr", "--restarts", "0"), ("ssp", "--restarts", "-1"),
     ("gr", "--maxiter", "0"), ("ssp", "--maxiter", "-3")],
)
def test_cli_vqe_rejects_counts_below_one(tmp_path, capsys, method, flag, value):
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, err = run_cli(
        capsys,
        ["vqe", "--spec", spec_path, "--hamiltonian", ham_path, "--method", method, flag, value],
    )
    assert code == 1
    assert report is None
    assert err.startswith(f"error: {flag[2:]} must be at least 1, got {value}")


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

    hf_state = spec_state(fileio.parse_state_spec("1 1100\n"))
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
    hf_state = spec_state(fileio.parse_state_spec("1 1100\n"))
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
    assert report is None
    assert err == "error: gate 0: angle 't0' must be a number\n"


def test_cli_sceom_rejects_an_ansatz_that_synth_wrote(tmp_path, capsys):
    """synth writes a circuit that prepares the reference from |0000>, so as an
    ansatz it moves the prepared reference out of its particle sector."""
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    amp = math.sqrt(0.095)
    spec_path = write(tmp_path, "s.txt", f"0.9 1100\n{amp!r} 0110\n{amp!r} 1001\n")
    circuit_path = str(tmp_path / "ansatz.json")
    code, report, _ = run_cli(
        capsys,
        ["synth", "--spec", spec_path, "--method", "gr", "--gateset", "none", "--out", circuit_path],
    )
    assert (code, report["verified"]) == (0, True)
    code, report, err = run_cli(
        capsys,
        ["sceom", "--hamiltonian", ham_path, "--orbitals", "2", "--electrons", "2",
         "--ansatz", circuit_path],
    )
    assert (code, report) == (1, None)
    assert err.startswith(
        "error: ansatz U keeps weight 0 of U|1100> in the reference's 2-particle sector;"
    )


def test_cli_sceom_rejects_width_mismatch(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, err = run_cli(
        capsys, ["sceom", "--hamiltonian", ham_path, "--orbitals", "3", "--electrons", "2"]
    )
    assert code == 1
    assert "3 orbitals give 6 qubits" in err


def test_cli_sceom_rejects_an_ansatz_on_another_register(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, err = run_cli(
        capsys,
        ["sceom", "--hamiltonian", ham_path, "--orbitals", "2", "--electrons", "2",
         "--ansatz", six_qubit_circuit(tmp_path)],
    )
    assert (code, report, err) == (
        1, None, "error: circuit acts on 6 qubits but the operator has 4\n"
    )


@pytest.mark.parametrize(
    "orbitals, electrons, message",
    [
        ("2", "-2", "electron count must not be negative, got -2"),
        ("2", "0", "reference 0000 admits no excitation, so the excitation matrix is empty"),
        ("2", "4", "reference 1111 admits no excitation, so the excitation matrix is empty"),
        ("0", "0", "orbital count must be at least 1, got 0"),
        ("-1", "0", "orbital count must be at least 1, got -1"),
    ],
)
def test_cli_sceom_rejects_reference_without_excitations(
    tmp_path, capsys, orbitals, electrons, message
):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    argv = ["sceom", "--hamiltonian", ham_path, "--orbitals", orbitals, "--electrons", electrons]
    code, report, err = run_cli(capsys, argv)
    assert code == 1
    assert report is None
    assert err == f"error: {message}\n"


def test_cli_spectrum(tmp_path, capsys):
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, _ = run_cli(capsys, ["spectrum", "--hamiltonian", ham_path, "--count", "3"])
    assert code == 0
    assert len(report["lowest"]) == 3
    exact = exact_spectrum(fileio.parse_hamiltonian(HAM_TEXT))[:3]
    assert np.allclose(report["lowest"], exact, atol=1e-12)


def test_cli_reports_out_of_memory_as_error(tmp_path, capsys, monkeypatch):
    # A dense eigensolve too large for the process's address space raises
    # MemoryError; it must end on the error contract, not a traceback.
    def out_of_memory(matrix):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, out_of_memory)
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    code, report, err = run_cli(capsys, ["spectrum", "--hamiltonian", ham_path])
    assert code == 1
    assert report is None
    assert err == "error: out of memory: Unable to allocate 1.00 GiB for an array\n"


def test_cli_spectrum_rejects_oversized_operators_before_solving(tmp_path, capsys, monkeypatch):
    # A non-conserving operator is one block over the whole register; at 13
    # qubits that block alone would take 1 GiB, so it must be refused before
    # any eigensolver runs.
    def no_solve(matrix):
        pytest.fail("an oversized operator reached an eigensolver")

    for solver in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, no_solve)
    cases = [
        ("1.0 " + "Z" * 13 + "\n0.5 XX" + "I" * 11 + "\n",
         "the 13-qubit operator's largest block has 8192 rows, beyond the eigensolve budget of 4096"),
        ("1.0 " + "Z" * 15 + "\n", "15 qubits exceeds spectrum budget 14"),
    ]
    for text, message in cases:
        ham_path = write(tmp_path, "h.txt", text)
        code, report, err = run_cli(capsys, ["spectrum", "--hamiltonian", ham_path])
        assert code == 1
        assert report is None
        assert err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "command, flag, value",
    [("qcels", "--tau", "nan"), ("spectrum", "--count", "-1"), ("verify", "--tolerance", "nan"),
     ("verify", "--tolerance", "-1"), ("verify", "--tolerance", "1"),
     ("verify", "--tolerance", "1.5"), ("verify", "--tolerance", "inf")],
)
def test_cli_rejects_values_without_a_valid_report(tmp_path, capsys, command, flag, value):
    # A NaN would make the report invalid JSON, a negative count would
    # silently drop eigenvalues, and a tolerance outside [0, 1) would fail or
    # pass every circuit; all must end in the error contract.
    spec_path = write(tmp_path, "state.txt", SPEC_TEXT)
    ham_path = write(tmp_path, "h.txt", HAM_TEXT)
    circuit_path = str(tmp_path / "c.json")
    assert cli.main(["synth", "--spec", spec_path, "--out", circuit_path]) == 0
    capsys.readouterr()
    inputs = {
        "qcels": ["--spec", spec_path, "--hamiltonian", ham_path],
        "spectrum": ["--hamiltonian", ham_path],
        "verify": ["--spec", spec_path, "--circuit", circuit_path],
    }
    code, report, err = run_cli(capsys, [command, *inputs[command], flag, value])
    assert code == 1
    assert report is None
    assert err.startswith("error:")
    if command == "verify":
        assert "--tolerance" in err


def test_cli_reports_missing_file_as_user_error(tmp_path, capsys):
    code, report, err = run_cli(capsys, ["synth", "--spec", str(tmp_path / "missing.txt")])
    assert code == 1
    assert report is None
    assert err.startswith("error:")


def _strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"report carries {constant}")

    return json.loads(text, parse_constant=reject)


def test_fuzzed_inputs_parse_or_end_in_the_error_contract(tmp_path, capsys):
    # Token-level mutations of small valid inputs, through the parsers and
    # through cli.main with option values argparse accepts: every case either
    # prints a strict-JSON report or exits 1 with an error line and no
    # report. A traceback escapes and fails the test.
    rng = random.Random(31)
    coeffs = ["0.6", "-0.8", "1", "0", "-0", "1e-300", "1e300", "1e400", "nan", "inf",
              "\u22120.5", "0x1", "1_0", "abc", ".", "--1"]
    bits = ["1100", "0110", "1001", "0011", "110", "11000", "1111", "0000", "2100", "11o0", ""]
    words = ["ZIII", "IZIZ", "XXYY", "YIYI", "IIII", "ZZ", "ZIIII", "Q", "zzii", ""]
    spec_lines = ["0.5 1100", "0.5 0110", "-0.5 1001", "0.5 0011"]
    ham_lines = HAM_TEXT.splitlines()

    def mutate(lines, tokens_by_field):
        lines = list(lines)
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            i = rng.randrange(len(lines))
            op = rng.random()
            if op < 0.6:
                fields = lines[i].split() or [""]
                j = rng.randrange(len(fields))
                fields[j] = rng.choice(tokens_by_field[min(j, 1)])
                lines[i] = " ".join(fields)
            elif op < 0.75:
                del lines[i]
                if not lines:
                    break
            elif op < 0.9:
                lines.insert(i, lines[i])
            else:
                lines.insert(i, rng.choice(["ordered", "# note", "", "0.1 1100 extra", "0.1"]))
        return "\n".join(lines) + "\n"

    # Repeated values weight the valid ones, so runs that succeed are common.
    options = {
        "tau": ["0.3", "0.3", "1", "-1", "0", "nan", "inf", "-inf", "1e-300", "100"],
        "samples": ["-3", "1", "2", "8", "8", "4097", "100000000"],
        "count": ["-1", "0", "3", "100"],
        "tolerance": ["nan", "-1", "0", "0.5", "1e-9", "inf"],
        "restarts": ["-1", "0", "1", "1"],
        "maxiter": ["-1", "0", "1", "3", "3"],
        "orbitals": ["-1", "0", "1", "2", "2", "2"],
        "electrons": ["-2", "0", "1", "2", "2", "5"],
    }
    good_spec = write(tmp_path, "good.txt", SPEC_TEXT)
    circuit = str(tmp_path / "good.json")
    assert cli.main(["synth", "--spec", good_spec, "--out", circuit]) == 0
    capsys.readouterr()

    for _ in range(120):
        spec_text = mutate(spec_lines, (coeffs, bits))
        ham_text = mutate(ham_lines, (coeffs, words))
        for parse, text in ((fileio.parse_state_spec, spec_text),
                            (fileio.parse_hamiltonian, ham_text)):
            try:
                parse(text)
            except (ValueError, ArithmeticError):
                pass
        spec = write(tmp_path, "spec.txt", spec_text)
        ham = write(tmp_path, "h.txt", ham_text)
        pick = {name: f"--{name}={rng.choice(values)}" for name, values in options.items()}
        argv = rng.choice([
            ["synth", "--spec", spec, "--method", rng.choice(["gr", "ssp"])],
            ["verify", "--spec", spec, "--circuit", circuit, pick["tolerance"]],
            ["resources", "--spec", spec, "--gateset", rng.choice(["zz", "cx"])],
            ["moments", "--spec", spec, "--hamiltonian", ham],
            ["qcels", "--spec", spec, "--hamiltonian", ham, pick["tau"], pick["samples"]],
            ["spectrum", "--hamiltonian", ham, pick["count"]],
            ["vqe", "--spec", spec, "--hamiltonian", ham, pick["restarts"], pick["maxiter"]],
            ["sceom", "--hamiltonian", ham, pick["orbitals"], pick["electrons"]],
        ])
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if out:
            report = _strict_json(out)
            assert report["command"] == argv[0], argv
            # A report with exit 1 is a verification verdict.
            assert code == 0 or (code == 1 and report["verified"] is False), argv
        else:
            assert code == 1, argv
            assert err.startswith("error:"), (argv, err)
