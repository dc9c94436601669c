"""Text and JSON serialization.

Hamiltonians and state specs use a line-oriented plain-text format with
``#`` comments. Circuits use a JSON document whose angles are numbers stored
in units of pi.
"""
from __future__ import annotations

import json
import math

from .circuits import PARAM_ARITY, Circuit, Gate, _checked_circuit, _checked_gate
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


def _angle_text(value) -> str:
    """An angle as json writes it: in units of pi, by float.__repr__. Gate
    admits finite angles only, so none is written as NaN or Infinity."""
    return float.__repr__(float(value) / math.pi)


def _angle_from_json(value, position: int) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        angle = float(value) * math.pi
        if not math.isfinite(angle):
            raise ParseError(f"gate {position}: angle {value!r} is not finite")
        return angle
    raise ParseError(f"gate {position}: angle {value!r} must be a number")


_INT = frozenset({int})


def _integers(value, position: int, field: str) -> tuple[int, ...]:
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    if not isinstance(value, list) or not _INT.issuperset(map(type, value)):
        raise ParseError(f"gate {position}: {field} {value!r} must be a list of integers")
    return tuple(value)


def _controls(pairs, position: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2 for p in pairs):
        raise ParseError(
            f"gate {position}: controls {pairs!r} must be a list of [qubit, state] pairs"
        )
    return tuple(_integers(p, position, "control") for p in pairs)


def _gate_head(kind: str, targets: tuple, controls: tuple) -> str:
    """A gate object's text up to its angle, as json.dumps(indent=2) writes it
    at the depth of the 'gates' list, without the closing brace."""
    entry: dict = {"kind": kind, "targets": list(targets)}
    if controls:
        entry["controls"] = [list(pair) for pair in controls]
    return "    " + json.dumps(entry, indent=2)[:-2].replace("\n", "\n    ")


def circuit_to_json(c: Circuit) -> str:
    """The circuit file, byte for byte what json.dumps(doc, indent=2) writes:
    each gate's text up to its angle is rendered once per shape, and angles
    are written into it."""
    heads: dict[tuple, str] = {}
    parts = []
    for g in c.gates:
        shape = (g.kind, g.targets, g.controls)
        head = heads.get(shape)
        if head is None:
            head = heads[shape] = _gate_head(*shape)
        params = g.params
        if not params:
            parts.append(head + "\n    }")
        elif len(params) == 1:
            parts.append(f'{head},\n      "angle": {_angle_text(params[0])}\n    }}')
        else:
            alpha, beta = map(_angle_text, params)
            parts.append(f'{head},\n      "angle": [\n        {alpha},\n        {beta}\n      ]\n    }}')
    gates = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
    return (
        f'{{\n  "schema": {json.dumps(CIRCUIT_SCHEMA)},\n  "n_qubits": {json.dumps(c.n_qubits)},\n'
        f'  "gates": {gates}\n}}\n'
    )


def as_written(c: Circuit) -> Circuit:
    """The circuit circuit_from_json reads back from circuit_to_json(c): the
    file holds each angle p as repr(p / pi), which round-trips, so p comes
    back as (p / pi) * pi."""
    gates = tuple(
        _checked_gate(g.kind, g.targets, g.controls, tuple(
            float(p) / math.pi * math.pi for p in g.params
        )) if g.params else g
        for g in c.gates
    )
    return _checked_circuit(c.n_qubits, gates)


_GATE_FIELDS = frozenset({"kind", "targets", "controls", "angle"})


def circuit_from_json(text: str) -> Circuit:
    """Read a circuit file. Each gate's fields are checked once; the checks of
    the Gate constructor and the register run once per distinct (kind,
    targets, controls)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from None
    if not isinstance(doc, dict) or "n_qubits" not in doc or "gates" not in doc:
        raise ParseError("expected an object with 'n_qubits' and 'gates'")
    if doc.get("schema", CIRCUIT_SCHEMA) != CIRCUIT_SCHEMA:
        raise ParseError(f"unsupported schema {doc.get('schema')!r}")
    n_qubits = doc["n_qubits"]
    if type(n_qubits) is not int:
        raise ParseError(f"n_qubits {n_qubits!r} must be an integer")
    if not isinstance(doc["gates"], list):
        raise ParseError(f"'gates' must be a list, got {doc['gates']!r}")
    gates = []
    checked: dict[tuple, Gate] = {}  # the first gate of each checked shape
    outside = False
    for position, entry in enumerate(doc["gates"]):
        if not isinstance(entry, dict) or "kind" not in entry or "targets" not in entry:
            raise ParseError(f"gate {position}: expected an object with 'kind' and 'targets'")
        if not _GATE_FIELDS.issuperset(entry):
            unknown = sorted(entry.keys() - _GATE_FIELDS)
            raise ParseError(
                f"gate {position}: unknown field {unknown[0]!r}; "
                "fields are kind, targets, controls and angle"
            )
        kind = entry["kind"]
        if not isinstance(kind, str) or kind not in PARAM_ARITY:
            raise ParseError(
                f"gate {position}: unknown kind {kind!r}; valid kinds are "
                + ", ".join(sorted(PARAM_ARITY))
            )
        arity = PARAM_ARITY[kind]
        angle = entry.get("angle")
        if arity == 0:
            if "angle" in entry:
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
        controls = _controls(entry["controls"], position) if "controls" in entry else ()
        shape = (kind, targets, controls)
        first = checked.get(shape)
        if first is None:
            try:
                first = checked[shape] = Gate(kind, targets, controls, params)
            except ValueError as err:
                raise ParseError(f"gate {position}: {err}") from None
            wires = targets + tuple(q for q, _ in controls)
            outside = outside or min(wires) < 0 or max(wires) >= n_qubits
            gates.append(first)
        elif params:
            gates.append(_checked_gate(kind, targets, controls, params))
        else:
            gates.append(first)  # Gates are immutable: one object per angle-free shape
    if outside or n_qubits <= 0:
        try:
            Circuit(n_qubits, tuple(gates))
        except ValueError as err:
            raise ParseError(str(err)) from None
    return _checked_circuit(n_qubits, tuple(gates))
