"""Tests of the benchmark's own machinery.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""
import importlib
import json
import math
import pathlib
import sys
from functools import reduce

import numpy as np
import pytest

from perfbench import checks, reference, tracing, workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def dense(terms, n):
    return sum(c * reduce(np.kron, [PAULI[ch] for ch in letters]) for c, letters in terms)


def test_self_times_subtract_covered_child_time():
    spans = [
        tracing.Span("cli.main", 0.0, 10.0, -1),
        tracing.Span("ssp.plan_merges", 1.0, 4.0, 0),
        tracing.Span("ssp.select_merge_pair", 1.5, 2.5, 1),
        tracing.Span("ssp.select_merge_pair", 3.0, 3.5, 1),
        tracing.Span("simulator.run_circuit", 5.0, 9.0, 0),
        tracing.Span("paulis.PauliSum.apply", 6.0, 7.0, 4),
    ]
    out = tracing.self_times(spans)
    assert out["cli"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert out["ssp"] == pytest.approx((3.0 - 1.5) + 1.0 + 0.5)
    assert out["simulator"] == pytest.approx(3.0)
    assert out["paulis"] == pytest.approx(1.0)
    assert sum(out.values()) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [
        tracing.Span("cli.main", 0.0, 4.0, -1),
        tracing.Span("fileio.parse_state_spec", 1.0, 3.0, 0),
        tracing.Span("fileio.parse_hamiltonian", 2.0, 5.0, 0),
    ]
    assert tracing.self_times(spans)["cli"] == pytest.approx(1.0)


def test_tracer_counts_calls_and_outermost_time_only():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("configs.inner", inner)

    def outer(x):
        return traced_inner(x) if x > 2 else traced_outer(x + 1)

    traced_outer = tracer.wrap("configs.outer", outer)
    assert traced_outer(0) == 4
    assert tracer.calls["configs.outer"] == 4
    assert tracer.calls["configs.inner"] == 1
    spans = tracer.spans
    root = spans[0]
    assert root.parent == -1 and all(s.parent == i for i, s in enumerate(spans[1:]))
    assert tracer.inclusive["configs.outer"] == pytest.approx(root.end - root.start)


def _attributes(owners):
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_install_and_remove_leave_every_attribute_identical():
    package = importlib.import_module("mcprep")
    modules = [importlib.import_module(f"mcprep.{layer}") for layer in tracing.LAYERS]
    solvers = [importlib.import_module(name) for name, _ in tracing.EIGENSOLVERS]
    owners = [package, *modules, modules[tracing.LAYERS.index("paulis")].PauliSum, *solvers]
    before = _attributes(owners)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, package)
    try:
        patched = {(id(owner), attr) for owner, attr, _ in patches}
        assert "run_circuit" in {attr for _, attr, _ in patches}
        cli = importlib.import_module("mcprep.cli")
        algorithms = importlib.import_module("mcprep.algorithms")
        assert cli.run_circuit is not before[(id(cli), "run_circuit")]
        assert algorithms.run_circuit is not before[(id(algorithms), "run_circuit")]
        assert patched <= set(before)
    finally:
        tracing.remove(patches)
    after = _attributes(owners)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_leaf_helpers_exist_and_stay_unwrapped():
    package = importlib.import_module("mcprep")
    for name in tracing.LEAVES:
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"mcprep.{layer}"), attr)), name
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, package)
    tracing.remove(patches)
    assert not {f"{owner.__name__.split('.')[-1]}.{attr}" for owner, attr, _ in patches} & tracing.LEAVES


def test_traced_calls_reach_every_binding():
    package = importlib.import_module("mcprep")
    from mcprep.configs import validate_spec

    tracer = tracing.Tracer()
    patches = tracing.install(tracer, package)
    try:
        algorithms = importlib.import_module("mcprep.algorithms")
        spec = algorithms.validate_spec([(0.6, "1100"), (0.8, "0110")])
        algorithms.run_circuit(algorithms.synthesize_ssp(spec))
    finally:
        tracing.remove(patches)
    assert validate_spec.__module__ == "mcprep.configs"
    metrics = tracing.layer_metrics(tracer)
    assert metrics["configs.validate_spec.calls"] == 1
    assert metrics["ssp.merge_steps"] == 1
    assert metrics["simulator.run_circuit.calls"] == 1
    assert metrics["simulator.us_per_gate.n4"] > 0


def _report(**body):
    return json.dumps({"schema": "mcprep/1", "command": "verify", **body})


def test_checker_flags_wrong_exit_code():
    good = checks.Result(0, _report(fidelity=1.0, verified=True), "")
    assert checks.evaluate(checks.verify, good).ok
    outcome = checks.evaluate(checks.verify, checks.Result(3, good.stdout, ""))
    assert not outcome.ok and "exit code 3" in outcome.reason
    assert not checks.evaluate(checks.rejected, checks.Result(2, "", "error: bad\n")).ok


def test_checker_flags_traceback():
    stderr = 'Traceback (most recent call last):\n  File "x"\nTypeError: boom\n'
    outcome = checks.evaluate(checks.rejected, checks.Result(1, "", stderr + "error: boom\n"))
    assert not outcome.ok and "traceback" in outcome.reason
    assert checks.evaluate(checks.rejected, checks.Result(1, "", "error: bad number\n")).ok
    assert not checks.evaluate(checks.rejected, checks.Result(1, _report(), "error: x\n")).ok


def test_checker_flags_unverified_report():
    outcome = checks.evaluate(checks.verify, checks.Result(0, _report(fidelity=1.0, verified=False), ""))
    assert not outcome.ok and "verified" in outcome.reason
    low = checks.Result(0, _report(fidelity=1 - 1e-6, verified=True), "")
    assert not checks.evaluate(checks.verify, low).ok


def test_reference_blocks_match_dense_operator():
    rng = np.random.default_rng(5)
    n = 4
    terms = workloads.number_conserving_terms(rng, n)
    h = dense(terms, n)
    assert np.allclose(reference.full_spectrum(terms, n), np.linalg.eigvalsh(h))
    state = [(0.6, "1100"), (-0.8, "0101")]
    psi = reference.state_vector(state, n)
    want = [np.vdot(psi, np.linalg.matrix_power(h, k) @ psi).real for k in range(1, 5)]
    assert np.allclose(reference.moments(terms, n, state), want)
    assert np.allclose(reference.apply_operator(terms, n, psi), h @ psi)


def test_qcels_reference_finds_the_dominant_eigenvalue():
    rng = np.random.default_rng(8)
    n = 4
    terms = workloads.number_conserving_terms(rng, n)
    values, vectors = np.linalg.eigh(reference.block(terms, n, reference.sector(n, 2)))
    bitstrings = [format(int(b), "04b") for b in reference.sector(n, 2)]
    state = list(zip(vectors[:, 0], bitstrings))
    tau = 0.8 * 2 * math.pi / np.ptp(reference.full_spectrum(terms, n))
    estimate, runner_up = reference.qcels_reference(terms, n, state, tau, 32)
    assert estimate == pytest.approx(values[0], abs=1e-9)
    assert runner_up < 0.5


def test_cisd_bitstrings_count_singles_and_doubles():
    assert len(workloads.cisd_bitstrings(4, 4)) == 27
    assert len(workloads.cisd_bitstrings(5, 4)) == 55
    assert workloads.cisd_bitstrings(3, 2)[0] == "110000"


def test_benchmark_file_names_every_reported_metric():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_repeat_check_flags_a_changed_signature(tmp_path):
    from perfbench import run

    path = tmp_path / "repeat.json"
    first = run.Ledger([])
    first.check_repeat(path, {"outcomes": {"a": [True, 1, 2, 3, [["x", "d1"]]]}, "counts": {"n": 4}})
    assert first.mismatches == []
    same = run.Ledger([])
    same.check_repeat(path, {"outcomes": {"a": [True, 1, 2, 3, [["x", "d1"]]]}, "counts": {"n": 4}})
    assert same.mismatches == []
    changed = run.Ledger([])
    changed.check_repeat(path, {"outcomes": {"a": [True, 1, 2, 3, [["x", "d2"]]]}, "counts": {"n": 4}})
    assert len(changed.mismatches) == 1 and changed.mismatches[0].startswith("a:")
    # The earliest value stays the reference.
    again = run.Ledger([])
    again.check_repeat(path, {"outcomes": {"a": [True, 1, 2, 3, [["x", "d1"]]]}})
    assert again.mismatches == []
