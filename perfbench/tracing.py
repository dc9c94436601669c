"""Spans around the public functions of each mcprep module, from outside.

``install`` replaces every public module-level function of each layer
module, wherever a module of the package has bound it (``run_circuit``, for
one, is bound in ``cli``, ``algorithms`` and ``simulator``), with a wrapper
that records a span; the PauliSum methods and the dense and sparse
eigensolvers get the same. Helpers that build or act on one gate, one Pauli
word or one pair of configurations (``LEAVES``) are left unwrapped: they run
per gate or per term, below every metric boundary, and a span each would
put the tracer's own cost into the layer times. ``remove`` puts every
original object back.
Spans stay in memory until the traced pass ends; ``layer_metrics`` turns
them into the per-layer metrics.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import time

LAYERS = ("cli", "fileio", "configs", "givens", "ssp", "circuits", "simulator", "paulis", "algorithms")
PAULI_METHODS = ("apply", "matrix", "sparse_matrix")
EIGENSOLVERS = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("scipy.sparse.linalg", "eigsh"))
REGISTER_SIZES = (4, 6, 8, 10, 12)
LEAVES = frozenset({
    "configs.hamming", "configs.xor_support", "configs.restricted_hamming",
    "configs.apply_excitation",
    "circuits.gate", "circuits.x_gate", "circuits.ry_gate", "circuits.rz_gate",
    "circuits.phasedx_gate", "circuits.cnot_gate", "circuits.zzmax_gate", "circuits.swap_gate",
    "circuits.g2_gate", "circuits.g4_gate", "circuits.control_wrap", "circuits.gate_matrix",
    "paulis.word_multiply", "paulis.apply_word",
    "ssp.merge_angle",
})

# Per-layer metrics with their units, in report order. "count" and "ratio"
# values are exact and must repeat between passes; times are medians.
METRICS = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("fileio.parse.calls", "count"),
    ("fileio.parse_s", "s"),
    ("fileio.render_s", "s"),
    ("fileio.self_s", "s"),
    ("configs.validate_spec.calls", "count"),
    ("configs.validate_spec_s", "s"),
    ("configs.self_s", "s"),
    ("givens.plan_rotations_s", "s"),
    ("givens.synthesize_gr.calls", "count"),
    ("givens.rotations", "count"),
    ("givens.self_s", "s"),
    ("ssp.plan_merges_s", "s"),
    ("ssp.select_merge_pair.calls", "count"),
    ("ssp.select_merge_pair_s", "s"),
    ("ssp.merge_steps", "count"),
    ("ssp.self_s", "s"),
    ("circuits.compile_zz_s", "s"),
    ("circuits.compile_cx_s", "s"),
    ("circuits.compile.calls", "count"),
    ("circuits.compile.gates_in", "count"),
    ("circuits.compile.gates_out", "count"),
    ("circuits.compile.gates_out_per_in", "ratio"),
    ("circuits.bind_parameters.calls", "count"),
    ("circuits.bind_parameters_s", "s"),
    ("circuits.self_s", "s"),
    ("simulator.run_circuit.calls", "count"),
    ("simulator.run_circuit_s", "s"),
    ("simulator.gates_simulated", "count"),
    *((f"simulator.us_per_gate.n{n}", "us") for n in REGISTER_SIZES),
    ("simulator.expectation.calls", "count"),
    ("simulator.expectation_s", "s"),
    ("simulator.moments_s", "s"),
    ("simulator.evolve.calls", "count"),
    ("simulator.evolve_s", "s"),
    ("simulator.exact_spectrum.calls", "count"),
    ("simulator.exact_spectrum_s", "s"),
    ("simulator.self_s", "s"),
    ("paulis.apply.calls", "count"),
    ("paulis.apply_s", "s"),
    ("paulis.term_applications", "count"),
    ("paulis.matrix.calls", "count"),
    ("paulis.matrix_s", "s"),
    ("paulis.sparse_matrix.calls", "count"),
    ("paulis.sparse_matrix_s", "s"),
    ("paulis.self_s", "s"),
    ("linalg.eigensolves", "count"),
    ("linalg.eigensolve_s", "s"),
    ("linalg.eigensolves_per_operator", "ratio"),
    ("linalg.self_s", "s"),
    ("algorithms.vqe_minimize.calls", "count"),
    ("algorithms.vqe_minimize_s", "s"),
    ("algorithms.vqe.circuit_runs", "count"),
    ("algorithms.vqe.runs_per_call", "ratio"),
    ("algorithms.qcels_series_s", "s"),
    ("algorithms.qcels_estimate_s", "s"),
    ("algorithms.sceom_m_matrix_s", "s"),
    ("algorithms.sceom.probes", "count"),
    ("algorithms.sceom_element_resources_s", "s"),
    ("algorithms.self_s", "s"),
    ("trace.overhead_s", "s"),
)
EXACT_UNITS = ("count", "ratio")


@dataclasses.dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[str, float]:
    """Per layer: each span's duration minus the part of it its child spans
    cover, summed."""
    children: dict[int, list[Span]] = collections.defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out: dict[str, float] = collections.defaultdict(float)
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[layer_of(span.name)] += (span.end - span.start) - covered
    return dict(out)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.calls: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.inclusive: dict[str, float] = collections.defaultdict(float)
        self.invocation = 0
        self._stack: list[int] = []
        self._active: collections.Counter = collections.Counter()

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[name] -= 1
                self.spans[index] = Span(name, start, end, parent)
                self.calls[name] += 1
                if not self._active[name]:
                    self.inclusive[name] += end - start
            if hook is not None:
                hook(self, args, kwargs, result, end - start)
            return result

        return traced


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _run_circuit(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    circuit = _arg(args, kwargs, 0, "c")
    tr.counts["simulator.gates_simulated"] += len(circuit.gates)
    tr.counts[f"gates.n{circuit.n_qubits}"] += len(circuit.gates)
    tr.inclusive[f"run_circuit.n{circuit.n_qubits}"] += elapsed
    if tr.active("algorithms.vqe_minimize"):
        tr.counts["algorithms.vqe.circuit_runs"] += 1


def _compile(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    tr.counts["circuits.compile.gates_in"] += len(_arg(args, kwargs, 0, "c").gates)
    tr.counts["circuits.compile.gates_out"] += len(result.gates)
    tr.inclusive[f"compile.{_arg(args, kwargs, 1, 'gateset').name}"] += elapsed


def _plan_rotations(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    tr.counts["givens.rotations"] += len(result.rotations)


def _plan_merges(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    tr.counts["ssp.merge_steps"] += len(result[0])


def _apply(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    tr.counts["paulis.term_applications"] += args[0].n_terms


def _validate_spec(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    if tr.active("algorithms.sceom_m_matrix"):
        tr.counts["algorithms.sceom.probes"] += 1


def _eigensolve(tr: Tracer, args, kwargs, result, elapsed: float) -> None:
    # The excitation matrix of sceom_energies is not an operator of the input.
    if not tr.active("algorithms.sceom_energies"):
        tr.counts[f"operator_solves.{tr.invocation}"] += 1


HOOKS = {
    "simulator.run_circuit": _run_circuit,
    "circuits.compile_circuit": _compile,
    "givens.plan_rotations": _plan_rotations,
    "ssp.plan_merges": _plan_merges,
    "paulis.PauliSum.apply": _apply,
    "configs.validate_spec": _validate_spec,
    **{f"linalg.{attr}": _eigensolve for _, attr in EIGENSOLVERS},
}


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap the layer functions, except ``LEAVES``, in every package
    namespace that binds them.

    Returns the (owner, attribute, original) patches for ``remove``.
    """
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    targets: dict[int, tuple[str, object]] = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and name not in LEAVES):
                targets[id(obj)] = (name, obj)
    patches = []
    for namespace in (package, *modules):
        for attr, obj in list(vars(namespace).items()):
            found = targets.get(id(obj))
            if found is not None and found[1] is obj:
                patches.append((namespace, attr, obj))
                setattr(namespace, attr, tracer.wrap(found[0], obj))
    pauli_sum = modules[LAYERS.index("paulis")].PauliSum
    for attr in PAULI_METHODS:
        original = vars(pauli_sum)[attr]
        patches.append((pauli_sum, attr, original))
        setattr(pauli_sum, attr, tracer.wrap(f"paulis.PauliSum.{attr}", original))
    for module_name, attr in EIGENSOLVERS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        patches.append((module, attr, original))
        setattr(module, attr, tracer.wrap(f"linalg.{attr}", original))
    return patches


def remove(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every metric of METRICS except the two measured outside one pass
    (``cli.import_s`` and ``trace.overhead_s``)."""
    calls, counts, inc = tr.calls, tr.counts, tr.inclusive
    parse = ("fileio.parse_state_spec", "fileio.parse_hamiltonian", "fileio.circuit_from_json")
    render = ("fileio.circuit_to_json", "fileio.render_hamiltonian", "fileio.render_state_spec")
    solves = [v for k, v in counts.items() if k.startswith("operator_solves.")]
    vqe_calls = calls["algorithms.vqe_minimize"]
    m = {
        "fileio.parse.calls": sum(calls[n] for n in parse),
        "fileio.parse_s": sum(inc[n] for n in parse),
        "fileio.render_s": sum(inc[n] for n in render),
        "configs.validate_spec.calls": calls["configs.validate_spec"],
        "configs.validate_spec_s": inc["configs.validate_spec"],
        "givens.plan_rotations_s": inc["givens.plan_rotations"],
        "givens.synthesize_gr.calls": calls["givens.synthesize_gr"],
        "givens.rotations": counts["givens.rotations"],
        "ssp.plan_merges_s": inc["ssp.plan_merges"],
        "ssp.select_merge_pair.calls": calls["ssp.select_merge_pair"],
        "ssp.select_merge_pair_s": inc["ssp.select_merge_pair"],
        "ssp.merge_steps": counts["ssp.merge_steps"],
        "circuits.compile_zz_s": inc["compile.zz"],
        "circuits.compile_cx_s": inc["compile.cx"],
        "circuits.compile.calls": calls["circuits.compile_circuit"],
        "circuits.compile.gates_in": counts["circuits.compile.gates_in"],
        "circuits.compile.gates_out": counts["circuits.compile.gates_out"],
        "circuits.compile.gates_out_per_in": (
            counts["circuits.compile.gates_out"] / counts["circuits.compile.gates_in"]
            if counts["circuits.compile.gates_in"] else 0.0
        ),
        "circuits.bind_parameters.calls": calls["circuits.bind_parameters"],
        "circuits.bind_parameters_s": inc["circuits.bind_parameters"],
        "simulator.run_circuit.calls": calls["simulator.run_circuit"],
        "simulator.run_circuit_s": inc["simulator.run_circuit"],
        "simulator.gates_simulated": counts["simulator.gates_simulated"],
        "simulator.expectation.calls": calls["simulator.expectation"],
        "simulator.expectation_s": inc["simulator.expectation"],
        "simulator.moments_s": inc["simulator.moments"],
        "simulator.evolve.calls": calls["simulator.evolve"],
        "simulator.evolve_s": inc["simulator.evolve"],
        "simulator.exact_spectrum.calls": calls["simulator.exact_spectrum"],
        "simulator.exact_spectrum_s": inc["simulator.exact_spectrum"],
        "paulis.apply.calls": calls["paulis.PauliSum.apply"],
        "paulis.apply_s": inc["paulis.PauliSum.apply"],
        "paulis.term_applications": counts["paulis.term_applications"],
        "paulis.matrix.calls": calls["paulis.PauliSum.matrix"],
        "paulis.matrix_s": inc["paulis.PauliSum.matrix"],
        "paulis.sparse_matrix.calls": calls["paulis.PauliSum.sparse_matrix"],
        "paulis.sparse_matrix_s": inc["paulis.PauliSum.sparse_matrix"],
        "linalg.eigensolves": sum(calls[f"linalg.{attr}"] for _, attr in EIGENSOLVERS),
        "linalg.eigensolve_s": sum(inc[f"linalg.{attr}"] for _, attr in EIGENSOLVERS),
        "linalg.eigensolves_per_operator": sum(solves) / len(solves) if solves else 0.0,
        "algorithms.vqe_minimize.calls": vqe_calls,
        "algorithms.vqe_minimize_s": inc["algorithms.vqe_minimize"],
        "algorithms.vqe.circuit_runs": counts["algorithms.vqe.circuit_runs"],
        "algorithms.vqe.runs_per_call": (
            counts["algorithms.vqe.circuit_runs"] / vqe_calls if vqe_calls else 0.0
        ),
        "algorithms.qcels_series_s": inc["algorithms.qcels_series"],
        "algorithms.qcels_estimate_s": inc["algorithms.qcels_estimate"],
        "algorithms.sceom_m_matrix_s": inc["algorithms.sceom_m_matrix"],
        "algorithms.sceom.probes": counts["algorithms.sceom.probes"],
        "algorithms.sceom_element_resources_s": inc["algorithms.sceom_element_resources"],
    }
    for n in REGISTER_SIZES:
        gates = counts[f"gates.n{n}"]
        m[f"simulator.us_per_gate.n{n}"] = 1e6 * inc[f"run_circuit.n{n}"] / gates if gates else 0.0
    per_layer = self_times([s for s in tr.spans if s is not None])
    for layer in (*LAYERS, "linalg"):
        m[f"{layer}.self_s"] = per_layer.get(layer, 0.0)
    return m
