"""Checks of one mcprep invocation against its expected outcome.

An expectation is a callable that takes the invocation's exit code, stdout
and stderr, raises ``Miss`` when the outcome differs from the expected one,
and otherwise returns a ``Tally`` of the compiled-circuit counts and circuit
file digests the invocation reported.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib

REPORT_SCHEMA = "mcprep/1"
CIRCUIT_SCHEMA = "mcprep/circuit/1"
FIDELITY_FLOOR = 1 - 1e-9


class Miss(Exception):
    """The invocation's outcome differs from the expected one."""


@dataclasses.dataclass(frozen=True)
class Result:
    returncode: int
    stdout: str
    stderr: str


@dataclasses.dataclass
class Tally:
    """Counts summed over every compiled circuit an invocation reports."""

    two_qubit: int = 0
    gates: int = 0
    depth: int = 0
    digests: list[tuple[str, str]] = dataclasses.field(default_factory=list)

    def add(self, resources: dict) -> None:
        for key in ("n_gates", "two_qubit", "depth"):
            if not isinstance(resources.get(key), int) or resources[key] < 0:
                raise Miss(f"resource count {key!r} missing or not a count: {resources}")
        self.gates += resources["n_gates"]
        self.two_qubit += resources["two_qubit"]
        self.depth += resources["depth"]


@dataclasses.dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    two_qubit: int = 0
    gates: int = 0
    depth: int = 0
    digests: tuple[tuple[str, str], ...] = ()

    @property
    def signature(self) -> tuple:
        """What must repeat exactly when the same invocation runs again."""
        return (self.ok, self.two_qubit, self.gates, self.depth, self.digests)


def evaluate(expect, result: Result) -> Outcome:
    try:
        tally = expect(result)
    except Miss as miss:
        return Outcome(False, str(miss))
    return Outcome(True, "", tally.two_qubit, tally.gates, tally.depth, tuple(tally.digests))


def _no_traceback(result: Result) -> None:
    if "Traceback (most recent call last)" in result.stderr:
        raise Miss("traceback on stderr: " + result.stderr.strip().splitlines()[-1])


def report(result: Result, command: str) -> dict:
    """The JSON report of a successful invocation."""
    _no_traceback(result)
    if result.returncode != 0:
        raise Miss(f"exit code {result.returncode}, stderr {result.stderr.strip()[-200:]!r}")
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as err:
        raise Miss(f"stdout is not one JSON report: {err}") from None
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise Miss(f"report schema is not {REPORT_SCHEMA!r}")
    if doc.get("command") != command:
        raise Miss(f"report command {doc.get('command')!r}, expected {command!r}")
    return doc


def _close(label: str, got, want: float, tolerance: float) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
        raise Miss(f"{label} is {got!r}, expected a finite number near {want:.12g}")
    if abs(got - want) > tolerance:
        raise Miss(f"{label} {got:.12g} differs from reference {want:.12g} by more than {tolerance:g}")


def _verified(body: dict, label: str) -> None:
    if body.get("verified") is not True:
        raise Miss(f"{label}: verified is {body.get('verified')!r}")
    fidelity = body.get("fidelity")
    if not isinstance(fidelity, float) or not fidelity >= FIDELITY_FLOOR:
        raise Miss(f"{label}: fidelity {fidelity!r} below {FIDELITY_FLOOR}")


def _circuit_digest(path: pathlib.Path, n_qubits: int) -> str:
    try:
        data = path.read_bytes()
    except OSError as err:
        raise Miss(f"circuit file not written: {err}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as err:
        raise Miss(f"circuit file {path.name} is not JSON: {err}") from None
    if doc.get("schema") != CIRCUIT_SCHEMA or doc.get("n_qubits") != n_qubits:
        raise Miss(f"circuit file {path.name} has schema {doc.get('schema')!r}, "
                   f"n_qubits {doc.get('n_qubits')!r}")
    return hashlib.sha256(data).hexdigest()


def rejected(result: Result) -> Tally:
    """The CLI error contract: exit 1, an ``error:`` line, no report, no traceback."""
    _no_traceback(result)
    if result.returncode != 1:
        raise Miss(f"exit code {result.returncode}, expected 1 for rejected input")
    if result.stdout.strip():
        raise Miss("rejected input produced a report on stdout")
    if not any(line.startswith("error:") for line in result.stderr.splitlines()):
        raise Miss("no 'error:' line on stderr")
    return Tally()


def synth(n_qubits: int, circuit: pathlib.Path | None):
    """One spec synthesized, verified and, with ``circuit``, written out."""

    def expect(result: Result) -> Tally:
        body = report(result, "synth")
        _verified(body, "synth")
        tally = Tally()
        tally.add(body.get("resources", {}))
        if circuit is not None:
            tally.digests.append((circuit.name, _circuit_digest(circuit, n_qubits)))
        return tally

    return expect


def synth_dir(circuits: dict[str, tuple[int, pathlib.Path]]):
    """A directory of specs; ``circuits`` maps each spec file name to its
    register size and the circuit file expected for it."""

    def expect(result: Result) -> Tally:
        body = report(result, "synth")
        if body.get("verified") is not True:
            raise Miss("synth --spec-dir: verified is not true")
        results = body.get("results", [])
        names = sorted(pathlib.Path(r.get("spec", "")).name for r in results)
        if names != sorted(circuits):
            raise Miss(f"synth --spec-dir reported specs {names}, expected {sorted(circuits)}")
        tally = Tally()
        for entry in results:
            name = pathlib.Path(entry["spec"]).name
            _verified(entry, f"synth {name}")
            tally.add(entry.get("resources", {}))
            n_qubits, path = circuits[name]
            tally.digests.append((path.name, _circuit_digest(path, n_qubits)))
        return tally

    return expect


def verify(result: Result) -> Tally:
    _verified(report(result, "verify"), "verify")
    return Tally()


def resources(methods: tuple[str, ...]):
    def expect(result: Result) -> Tally:
        body = report(result, "resources")
        per_method = body.get("methods", {})
        if sorted(per_method) != sorted(methods):
            raise Miss(f"resources reported methods {sorted(per_method)}, expected {sorted(methods)}")
        tally = Tally()
        for method in methods:
            tally.add(per_method[method])
        return tally

    return expect


def vqe(restricted_ground: float, exact_ground: float):
    """Energy at the ground energy of H projected on the spec's support
    (never below it), and the exact full-register ground energy."""

    def expect(result: Result) -> Tally:
        body = report(result, "vqe")
        energy = body.get("energy")
        _close("vqe energy", energy, restricted_ground, 1e-6)
        if energy < restricted_ground - 1e-9:
            raise Miss(f"vqe energy {energy} below the projected ground {restricted_ground}")
        _close("vqe exact_ground", body.get("exact_ground"), exact_ground, 1e-8)
        return Tally()

    return expect


def moments(reference: list[float]):
    def expect(result: Result) -> Tally:
        values = report(result, "moments").get("moments")
        if not isinstance(values, list) or len(values) != len(reference):
            raise Miss(f"moments {values!r}, expected {len(reference)} values")
        for k, (got, want) in enumerate(zip(values, reference), start=1):
            _close(f"moment {k}", got, want, 1e-8 * max(1.0, abs(want)))
        return Tally()

    return expect


def qcels(estimate: float, exact_ground: float | None):
    def expect(result: Result) -> Tally:
        body = report(result, "qcels")
        _close("qcels estimate", body.get("estimate"), estimate, 1e-6)
        if exact_ground is not None:
            _close("qcels exact_ground", body.get("exact_ground"), exact_ground, 1e-8)
        elif "exact_ground" in body:
            raise Miss("qcels reported an exact ground energy above the dense limit")
        return Tally()

    return expect


def sceom(reference_energy: float, excitation_energies, n_excitations: int, elements: bool):
    def expect(result: Result) -> Tally:
        body = report(result, "sceom")
        _close("sceom ground_energy", body.get("ground_energy"), reference_energy, 1e-9)
        if body.get("n_excitations") != n_excitations:
            raise Miss(f"sceom n_excitations {body.get('n_excitations')!r}, expected {n_excitations}")
        got = body.get("excitation_energies", [])
        if len(got) != len(excitation_energies):
            raise Miss(f"sceom gave {len(got)} excitation energies, expected {n_excitations}")
        for k, (g, w) in enumerate(zip(got, excitation_energies)):
            _close(f"sceom excitation energy {k}", g, float(w), 1e-8)
        tally = Tally()
        if elements:
            pairs = body.get("elements", [])
            if len(pairs) != n_excitations * (n_excitations - 1) // 2:
                raise Miss(f"sceom reported {len(pairs)} element costs")
            for pair in pairs:
                for key in ("gr_two_qubit", "ssp_two_qubit"):
                    if not isinstance(pair.get(key), int):
                        raise Miss(f"sceom element {pair} lacks {key}")
                    tally.two_qubit += pair[key]
        return tally

    return expect


def spectrum(lowest):
    def expect(result: Result) -> Tally:
        got = report(result, "spectrum").get("lowest", [])
        if len(got) != len(lowest):
            raise Miss(f"spectrum gave {len(got)} values, expected {len(lowest)}")
        for k, (g, w) in enumerate(zip(got, lowest)):
            _close(f"eigenvalue {k}", g, float(w), 1e-8)
        return Tally()

    return expect
