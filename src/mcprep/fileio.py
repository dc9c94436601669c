"""Text and JSON serialization.

Hamiltonians and state specs use a line-oriented plain-text format with
``#`` comments. Circuits use a JSON document whose numeric angles are stored
in units of pi; symbolic angles stay as name strings.
"""
from __future__ import annotations

import json
import math

from .circuits import PARAM_ARITY, Circuit, Gate
from .configs import StateSpec, validate_spec
from .paulis import PauliSum, PauliWord

CIRCUIT_SCHEMA = "mcprep/circuit/1"


class ParseError(ValueError):
    """Input text rejected; the message carries the offending line or gate."""


def _to_float(text: str, lineno: int, label: str) -> float:
    # U+2212 minus signs appear in text copied from typeset sources.
    try:
        value = float(text.replace("−", "-"))
    except ValueError:
        raise ParseError(f"line {lineno}: {label} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: {label} {text!r} is not finite")
    return value


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_hamiltonian(text: str) -> PauliSum:
    """Read ``coefficient letters`` lines into an operator sum.

    Letters are I, X, Y, Z, one per qubit, leftmost letter on qubit 0. All
    lines must agree on register width. Repeated words accumulate.
    """
    pairs: list[tuple[float, PauliWord]] = []
    width: int | None = None
    for lineno, line in _content_lines(text):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'coefficient word', got {line!r}")
        coeff = _to_float(fields[0], lineno, "coefficient")
        try:
            word = PauliWord.from_string(fields[1])
        except ValueError as err:
            raise ParseError(f"line {lineno}: {err}") from None
        if width is None:
            width = word.n_qubits
        elif word.n_qubits != width:
            raise ParseError(
                f"line {lineno}: word has {word.n_qubits} letters, earlier lines have {width}"
            )
        pairs.append((coeff, word))
    if not pairs:
        raise ParseError("no operator terms found")
    return PauliSum.from_terms(pairs, width)


def render_hamiltonian(h: PauliSum) -> str:
    return "".join(f"{coeff:.17g} {word}\n" for coeff, word in h.terms())


def parse_state_spec(text: str) -> StateSpec:
    """Read ``coefficient bitstring`` lines into a validated spec.

    Entries are reordered so the largest-magnitude coefficient leads, unless
    the first content line is the bare keyword ``ordered``, which preserves
    file order. Normalization and width checks follow the usual spec rules.
    """
    ordered = False
    entries: list[tuple[float, str]] = []
    for lineno, line in _content_lines(text):
        if not entries and not ordered and line == "ordered":
            ordered = True
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 'coefficient bitstring', got {line!r}")
        coeff = _to_float(fields[0], lineno, "coefficient")
        if set(fields[1]) - {"0", "1"}:
            raise ParseError(f"line {lineno}: bitstring {fields[1]!r} has non-binary characters")
        entries.append((coeff, fields[1]))
    if not entries:
        raise ParseError("no state entries found")
    spec = validate_spec(entries)
    return spec if ordered else spec.reordered_largest_first()


def render_state_spec(spec: StateSpec) -> str:
    """Inverse of parse_state_spec; emits the ``ordered`` header so the entry
    order round-trips exactly."""
    lines = ["ordered\n"]
    lines += [f"{coeff:.17g} {config}\n" for coeff, config in spec.entries]
    return "".join(lines)


def _angle_to_json(value):
    if isinstance(value, str):
        return value
    return float(value) / math.pi


def _angle_from_json(value, position: int):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        angle = float(value) * math.pi
        if not math.isfinite(angle):
            raise ParseError(f"gate {position}: angle {value!r} is not finite")
        return angle
    raise ParseError(f"gate {position}: angle {value!r} must be a number or a name")


def _integers(value, position: int, field: str) -> tuple[int, ...]:
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ParseError(f"gate {position}: {field} {value!r} must be a list of integers")
    return tuple(value)


def circuit_to_json(c: Circuit) -> str:
    gates = []
    for g in c.gates:
        entry: dict = {"kind": g.kind, "targets": list(g.targets)}
        if g.controls:
            entry["controls"] = [[q, s] for q, s in g.controls]
        arity = PARAM_ARITY[g.kind]
        if arity == 1:
            entry["angle"] = _angle_to_json(g.params[0])
        elif arity == 2:
            entry["angle"] = [_angle_to_json(p) for p in g.params]
        gates.append(entry)
    doc = {"schema": CIRCUIT_SCHEMA, "n_qubits": c.n_qubits, "gates": gates}
    return json.dumps(doc, indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from None
    if not isinstance(doc, dict) or "n_qubits" not in doc or "gates" not in doc:
        raise ParseError("expected an object with 'n_qubits' and 'gates'")
    if doc.get("schema", CIRCUIT_SCHEMA) != CIRCUIT_SCHEMA:
        raise ParseError(f"unsupported schema {doc.get('schema')!r}")
    if type(doc["n_qubits"]) is not int:
        raise ParseError(f"n_qubits {doc['n_qubits']!r} must be an integer")
    if not isinstance(doc["gates"], list):
        raise ParseError(f"'gates' must be a list, got {doc['gates']!r}")
    gates = []
    for position, entry in enumerate(doc["gates"]):
        if not isinstance(entry, dict) or "kind" not in entry or "targets" not in entry:
            raise ParseError(f"gate {position}: expected an object with 'kind' and 'targets'")
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in PARAM_ARITY:
            raise ParseError(
                f"gate {position}: unknown kind {kind!r}; valid kinds are "
                + ", ".join(sorted(PARAM_ARITY))
            )
        arity = PARAM_ARITY[kind]
        angle = entry.get("angle")
        if arity == 0:
            if angle is not None:
                raise ParseError(f"gate {position}: {kind} takes no angle")
            params: tuple = ()
        elif arity == 1:
            if angle is None:
                raise ParseError(f"gate {position}: {kind} needs an angle")
            params = (_angle_from_json(angle, position),)
        else:
            if not isinstance(angle, list) or len(angle) != arity:
                raise ParseError(f"gate {position}: {kind} needs a list of {arity} angles")
            params = tuple(_angle_from_json(a, position) for a in angle)
        targets = _integers(entry["targets"], position, "targets")
        pairs = entry.get("controls", [])
        if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2 for p in pairs):
            raise ParseError(
                f"gate {position}: controls {pairs!r} must be a list of [qubit, state] pairs"
            )
        controls = tuple(_integers(p, position, "control") for p in pairs)
        try:
            gates.append(Gate(kind, targets, controls, params))
        except ValueError as err:
            raise ParseError(f"gate {position}: {err}") from None
    try:
        return Circuit(doc["n_qubits"], tuple(gates))
    except ValueError as err:
        raise ParseError(str(err)) from None
