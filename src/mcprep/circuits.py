"""Gate-level intermediate representation, decomposition and compilation.

Gate kinds and wire conventions:

- ``X``, ``Ry``, ``Rz``, ``PhasedX`` act on one target. ``PhasedX(alpha, beta)``
  is ``Rz(beta) . Rx(alpha) . Rz(-beta)``.
- ``CNOT`` targets are (control wire, target wire); ``ZZMax`` is
  ``exp(-i pi/4 Z.Z)``; ``SWAP`` exchanges its two targets.
- ``G2(theta)`` rotates the two-qubit patterns 01 and 10 into each other,
  sending ``|10>`` to ``cos(theta)|10> + sin(theta)|01>``. ``G4(theta)`` does
  the same for the four-qubit patterns 0011 and 1100 and is identity on the
  other fourteen basis states.
- Any gate may carry extra controls as (qubit, state) pairs with state 0 or 1.

Matrices use the register convention of the rest of the package: the first
target is the most significant bit of the gate's local basis.

Angle bookkeeping is in radians everywhere in memory; serialization converts
to units of pi at the file boundary (see fileio).
"""
from __future__ import annotations

import dataclasses
import math
from typing import Iterable

import numpy as np

X = "X"
RY = "Ry"
RZ = "Rz"
PHASEDX = "PhasedX"
CNOT = "CNOT"
ZZMAX = "ZZMax"
SWAP = "SWAP"
G2 = "G2"
G4 = "G4"

TARGET_ARITY = {X: 1, RY: 1, RZ: 1, PHASEDX: 1, CNOT: 2, ZZMAX: 2, SWAP: 2, G2: 2, G4: 4}
PARAM_ARITY = {X: 0, RY: 1, RZ: 1, PHASEDX: 2, CNOT: 0, ZZMAX: 0, SWAP: 0, G2: 1, G4: 1}

_NULL_EPS = 1e-12


class UnboundParameterError(ValueError):
    """Raised when an operation needs numeric angles but symbols remain."""


@dataclasses.dataclass(frozen=True)
class Gate:
    """Single gate instance: kind, target wires, optional controls, angles.

    Angles may be floats (radians) or strings naming free parameters.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    params: tuple[float | str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in TARGET_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != TARGET_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} needs {TARGET_ARITY[self.kind]} targets, got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"repeated target in {self.targets}")
        if len(self.params) != PARAM_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} needs {PARAM_ARITY[self.kind]} angles, got {len(self.params)}"
            )
        ctrl_qubits = [q for q, _ in self.controls]
        if len(set(ctrl_qubits)) != len(ctrl_qubits):
            raise ValueError(f"repeated control qubit in {self.controls}")
        if set(ctrl_qubits) & set(self.targets):
            raise ValueError(f"controls {self.controls} overlap targets {self.targets}")
        if any(s not in (0, 1) for _, s in self.controls):
            raise ValueError(f"control states must be 0 or 1: {self.controls}")

    @property
    def wires(self) -> tuple[int, ...]:
        return self.targets + tuple(q for q, _ in self.controls)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(p for p in self.params if isinstance(p, str))

    def bound(self, values: dict[str, float]) -> Gate:
        params = tuple(values[p] if isinstance(p, str) else p for p in self.params)
        return dataclasses.replace(self, params=params)

    def numeric_params(self) -> tuple[float, ...]:
        if self.symbols:
            raise UnboundParameterError(f"unbound parameters {self.symbols} on {self.kind}")
        return tuple(float(p) for p in self.params)


def gate(kind: str, targets, controls=(), params=()) -> Gate:
    return Gate(kind, tuple(targets), tuple(controls), tuple(params))


def x_gate(q: int, controls=()) -> Gate:
    return Gate(X, (q,), tuple(controls))


def ry_gate(q: int, angle, controls=()) -> Gate:
    return Gate(RY, (q,), tuple(controls), (angle,))


def rz_gate(q: int, angle, controls=()) -> Gate:
    return Gate(RZ, (q,), tuple(controls), (angle,))


def phasedx_gate(q: int, alpha, beta, controls=()) -> Gate:
    return Gate(PHASEDX, (q,), tuple(controls), (alpha, beta))


def cnot_gate(control: int, target: int, controls=()) -> Gate:
    return Gate(CNOT, (control, target), tuple(controls))


def zzmax_gate(a: int, b: int, controls=()) -> Gate:
    return Gate(ZZMAX, (a, b), tuple(controls))


def swap_gate(a: int, b: int, controls=()) -> Gate:
    return Gate(SWAP, (a, b), tuple(controls))


def g2_gate(a: int, b: int, angle, controls=()) -> Gate:
    return Gate(G2, (a, b), tuple(controls), (angle,))


def g4_gate(a: int, b: int, c: int, d: int, angle, controls=()) -> Gate:
    return Gate(G4, (a, b, c, d), tuple(controls), (angle,))


def control_wrap(g: Gate, controls: Iterable[tuple[int, int]]) -> Gate:
    """Add controls to a gate; the new controls must not touch its wires."""
    extra = tuple(controls)
    for q, _ in extra:
        if q in g.wires:
            raise ValueError(f"control {q} collides with gate wires {g.wires}")
    return dataclasses.replace(g, controls=g.controls + extra)


@dataclasses.dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register; gates apply left to right."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            bad = [q for q in g.wires if q < 0 or q >= self.n_qubits]
            if bad:
                raise ValueError(f"gate wires {bad} outside register of {self.n_qubits}")

    @property
    def parameters(self) -> tuple[str, ...]:
        names: set[str] = set()
        for g in self.gates:
            names.update(g.symbols)
        return tuple(sorted(names))


def concatenate(*circuits: Circuit) -> Circuit:
    width = {c.n_qubits for c in circuits}
    if len(width) != 1:
        raise ValueError(f"register mismatch: {sorted(width)}")
    gates: tuple[Gate, ...] = ()
    for c in circuits:
        gates += c.gates
    return Circuit(width.pop(), gates)


_SELF_INVERSE = {X, CNOT, SWAP}
_INVERT_ANGLE = {RY, RZ, G2, G4}


def inverse(c: Circuit) -> Circuit:
    """Reversed circuit with each gate inverted. ZZMax has no in-set inverse."""
    out = []
    for g in reversed(c.gates):
        if g.kind in _SELF_INVERSE:
            out.append(g)
        elif g.kind in _INVERT_ANGLE:
            p = g.params[0]
            if isinstance(p, str):
                raise UnboundParameterError(f"cannot invert symbolic angle {p!r}")
            out.append(dataclasses.replace(g, params=(-p,)))
        elif g.kind == PHASEDX:
            a, b = g.params
            if isinstance(a, str) or isinstance(b, str):
                raise UnboundParameterError("cannot invert symbolic PhasedX")
            out.append(dataclasses.replace(g, params=(-a, b)))
        else:
            raise ValueError(f"no in-set inverse for {g.kind}")
    return Circuit(c.n_qubits, tuple(out))


def bind_parameters(c: Circuit, values: dict[str, float]) -> Circuit:
    names = set(c.parameters)
    missing = sorted(names - values.keys())
    extraneous = sorted(values.keys() - names)
    if missing:
        raise ValueError(f"missing parameter values for {missing}")
    if extraneous:
        raise ValueError(f"extraneous parameter values for {extraneous}")
    if not names:
        return c
    return Circuit(c.n_qubits, tuple(g.bound(values) if g.symbols else g for g in c.gates))


# --- gate matrices -----------------------------------------------------------


def _rx_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz_matrix(angle: float) -> np.ndarray:
    return np.array([[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]])


def gate_matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """Matrix over the gate's targets only (controls handled by the caller).

    Basis ordering: first target = most significant bit.
    """
    if kind == X:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == RY:
        return _ry_matrix(params[0])
    if kind == RZ:
        return _rz_matrix(params[0])
    if kind == PHASEDX:
        alpha, beta = params
        return _rz_matrix(beta) @ _rx_matrix(alpha) @ _rz_matrix(-beta)
    if kind == CNOT:
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if kind == ZZMAX:
        p = np.exp(-1j * np.pi / 4)
        return np.diag([p, p.conjugate(), p.conjugate(), p])
    if kind == SWAP:
        return np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    if kind == G2:
        c, s = math.cos(params[0]), math.sin(params[0])
        m = np.eye(4, dtype=complex)
        m[1, 1], m[1, 2], m[2, 1], m[2, 2] = c, s, -s, c
        return m
    if kind == G4:
        c, s = math.cos(params[0]), math.sin(params[0])
        m = np.eye(16, dtype=complex)
        lo, hi = 0b0011, 0b1100
        m[lo, lo], m[lo, hi], m[hi, lo], m[hi, hi] = c, s, -s, c
        return m
    raise ValueError(f"unknown gate kind {kind!r}")


# --- gate sets ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GateSet:
    name: str
    kinds: frozenset[str]


CX_NATIVE = GateSet("cx", frozenset({CNOT, RY, RZ, X}))
ZZ_NATIVE = GateSet("zz", frozenset({ZZMAX, PHASEDX, RZ}))


def gateset_by_name(name: str) -> GateSet:
    table = {"cx": CX_NATIVE, "zz": ZZ_NATIVE}
    if name not in table:
        raise ValueError(f"unknown gate set {name!r}; choose from {sorted(table)}")
    return table[name]


# --- decomposition to the CX-native set --------------------------------------


def _gray_transition_bits(k: int) -> list[int]:
    """Bit flipped after each rotation in a cyclic reflected-Gray walk."""
    bits = [( (i + 1) & -(i + 1) ).bit_length() - 1 for i in range(2**k - 1)]
    bits.append(k - 1)
    return bits


def _multiplexed_rotation(kind: str, target: int, controls, angle: float) -> list[Gate]:
    """Rotation of the target by `angle` exactly when every control matches its
    state, and by zero for every other control pattern.

    Gray-code multiplexor: 2^k controlled flips interleaved with 2^k rotations
    whose angles solve a linear system mapping per-position angles to
    per-pattern totals. Control states enter through the target pattern, so
    0-state controls cost nothing extra.
    """
    k = len(controls)
    size = 2**k
    # Control j corresponds to bit k-1-j of both the pattern index and the
    # Gray masks.
    pattern = 0
    for j, (_, state) in enumerate(controls):
        pattern |= state << (k - 1 - j)
    desired = np.zeros(size)
    desired[pattern] = angle

    transitions = _gray_transition_bits(k)
    prefix_masks = [0]
    for bit in transitions[:-1]:
        prefix_masks.append(prefix_masks[-1] ^ (1 << bit))
    signs = np.empty((size, size))
    for b in range(size):
        for i in range(size):
            signs[b, i] = -1.0 if (b & prefix_masks[i]).bit_count() % 2 else 1.0
    local = np.linalg.solve(signs, desired)

    out = []
    for i in range(size):
        out.append(Gate(kind, (target,), (), (float(local[i]),)))
        ctrl_qubit = controls[k - 1 - transitions[i]][0]
        out.append(cnot_gate(ctrl_qubit, target))
    return out


def _euler_angles(u: np.ndarray, axis: str) -> tuple[float, float, float, float]:
    """Return (a, b, c, delta) with u = exp(i delta) Rz(a) R(b) Rz(c), where R
    rotates about the middle axis "y" or "x".

    Rx(b) = Rz(-pi/2) Ry(b) Rz(pi/2), so the x form is the y form with a - c
    larger by pi.
    """
    turn = math.pi if axis == "x" else 0.0
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    delta = math.atan2(det.imag, det.real) / 2
    su = u * np.exp(-1j * delta)
    b = 2 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[1, 0]) < 1e-14:
        a, c = -2 * np.angle(su[0, 0]), 0.0
    elif abs(su[0, 0]) < 1e-14:
        a, c = 2 * np.angle(su[1, 0]) + turn, 0.0
    else:
        apc = -2 * np.angle(su[0, 0])
        amc = 2 * np.angle(su[1, 0]) + turn
        a, c = (apc + amc) / 2, (apc - amc) / 2
    return a, b, c, delta


def _emit_1q_unitary(q: int, u: np.ndarray) -> list[Gate]:
    a, b, c, _ = _euler_angles(u, "y")
    out = []
    if abs(c) > _NULL_EPS:
        out.append(rz_gate(q, c))
    if abs(b) > _NULL_EPS:
        out.append(ry_gate(q, b))
    if abs(a) > _NULL_EPS:
        out.append(rz_gate(q, a))
    return out


def _emit_controlled_1q(control: int, q: int, u: np.ndarray) -> list[Gate]:
    """Controlled one-qubit unitary via the two-CNOT conjugation form, with an
    Rz on the control absorbing the determinant phase.

    The conjugation part realizes the special-unitary factor su = e^{-i delta} u
    exactly, so the missing piece is diag(1, e^{i delta}) on the control, which
    is Rz(delta) up to a global phase.
    """
    a, b, c, delta = _euler_angles(u, "y")
    out = []
    if abs(c - a) > 2 * _NULL_EPS:
        out.append(rz_gate(q, (c - a) / 2))
    out.append(cnot_gate(control, q))
    if abs(a + c) > 2 * _NULL_EPS:
        out.append(rz_gate(q, -(a + c) / 2))
    if abs(b) > _NULL_EPS:
        out.append(ry_gate(q, -b / 2))
    out.append(cnot_gate(control, q))
    if abs(b) > _NULL_EPS:
        out.append(ry_gate(q, b / 2))
    if abs(a) > _NULL_EPS:
        out.append(rz_gate(q, a))
    if abs(delta) > _NULL_EPS:
        out.append(rz_gate(control, delta))
    return out


_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)


def _toffoli(c1: int, c2: int, t: int) -> list[Gate]:
    """Standard six-CNOT Toffoli with T rotations written as Rz(pi/4)."""
    quarter = math.pi / 4
    h_t = [rz_gate(t, math.pi), ry_gate(t, math.pi / 2)]
    out = []
    out += h_t
    out.append(cnot_gate(c2, t))
    out.append(rz_gate(t, -quarter))
    out.append(cnot_gate(c1, t))
    out.append(rz_gate(t, quarter))
    out.append(cnot_gate(c2, t))
    out.append(rz_gate(t, -quarter))
    out.append(cnot_gate(c1, t))
    out.append(rz_gate(c2, quarter))
    out.append(rz_gate(t, quarter))
    out += h_t
    out.append(cnot_gate(c1, c2))
    out.append(rz_gate(c1, quarter))
    out.append(rz_gate(c2, -quarter))
    out.append(cnot_gate(c1, c2))
    return out


def _principal_sqrt(u: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(u)
    return vectors @ np.diag(np.sqrt(values.astype(complex))) @ np.linalg.inv(vectors)


def _mc_unitary(controls: tuple[int, ...], t: int, u: np.ndarray) -> list[Gate]:
    """Multi-controlled one-qubit unitary, all controls on state 1, no ancilla.

    Recursive square-root split: halve the control count by conjugating a
    singly controlled sqrt(u) with a multi-controlled X on the last control.
    """
    if not controls:
        return _emit_1q_unitary(t, u)
    if len(controls) == 1:
        return _emit_controlled_1q(controls[0], t, u)
    v = _principal_sqrt(u)
    rest, last = controls[:-1], controls[-1]
    out = []
    out += _emit_controlled_1q(last, t, v)
    out += _mcx_ones(rest, last)
    out += _emit_controlled_1q(last, t, v.conj().T)
    out += _mcx_ones(rest, last)
    out += _mc_unitary(rest, t, v)
    return out


def _mcx_ones(controls: tuple[int, ...], t: int) -> list[Gate]:
    if len(controls) == 0:
        return [x_gate(t)]
    if len(controls) == 1:
        return [cnot_gate(controls[0], t)]
    if len(controls) == 2:
        return _toffoli(controls[0], controls[1], t)
    return _mc_unitary(controls, t, _X_MATRIX)


def _with_zero_controls_conjugated(controls, body_fn) -> list[Gate]:
    """Run body_fn on all-ones controls, X-conjugating the 0-state ones."""
    flips = [x_gate(q) for q, s in controls if s == 0]
    inner = body_fn(tuple(q for q, _ in controls))
    return flips + inner + list(reversed(flips))


def _mcx(controls: tuple[tuple[int, int], ...], t: int) -> list[Gate]:
    return _with_zero_controls_conjugated(controls, lambda ones: _mcx_ones(ones, t))


def _g2_template(a: int, b: int, theta: float) -> list[Gate]:
    """Pattern rotation 01/10: conjugate by CNOT, rotate the first wire
    controlled on the second. Exact, no phase residue."""
    return [
        cnot_gate(a, b),
        ry_gate(a, -theta),
        cnot_gate(b, a),
        ry_gate(a, theta),
        cnot_gate(b, a),
        cnot_gate(a, b),
    ]


def _g4_template(a: int, b: int, c: int, d: int, theta: float) -> list[Gate]:
    """Pattern rotation 0011/1100: three CNOTs fold the pair onto wire `a`,
    then a Gray-code multiplexed Ry rotates it under the (b,c,d) = (0,1,1)
    pattern. Exactly 14 two-qubit gates."""
    fold = [cnot_gate(a, b), cnot_gate(a, c), cnot_gate(a, d)]
    core = _multiplexed_rotation(RY, a, ((b, 0), (c, 1), (d, 1)), -2 * theta)
    return fold + core + list(reversed(fold))


def _expand_cx(g: Gate) -> list[Gate]:
    """Rewrite one gate into the CX-native kinds {CNOT, Ry, Rz, X}."""
    kind, ctrls = g.kind, g.controls
    params = g.numeric_params()

    if kind == SWAP and not ctrls:
        # The controlled form below emits the three CNOTs in the other order.
        a, b = g.targets
        return [cnot_gate(a, b), cnot_gate(b, a), cnot_gate(a, b)]
    if kind == X:
        return _flatten_cx(_mcx(ctrls, g.targets[0]))
    if kind == CNOT:
        all_ctrls = ctrls + ((g.targets[0], 1),)
        return _flatten_cx(_mcx(all_ctrls, g.targets[1]))
    if kind in (RY, RZ):
        if len(ctrls) == 0:
            return [g]
        return _flatten_cx(_multiplexed_rotation(kind, g.targets[0], ctrls, params[0]))
    if kind == PHASEDX:
        alpha, beta = params
        q = g.targets[0]
        seq = [
            rz_gate(q, math.pi / 2 - beta, ctrls),
            ry_gate(q, alpha, ctrls),
            rz_gate(q, beta - math.pi / 2, ctrls),
        ]
        return _flatten_cx(seq)
    if kind == ZZMAX:
        a, b = g.targets
        seq = [cnot_gate(a, b, ctrls), rz_gate(b, math.pi / 2, ctrls), cnot_gate(a, b, ctrls)]
        return _flatten_cx(seq)
    if kind == SWAP:
        a, b = g.targets
        middle = x_gate(b, ctrls + ((a, 1),))
        return _flatten_cx([cnot_gate(b, a), middle, cnot_gate(b, a)])
    if kind in (G2, G4):
        template = (
            _g2_template(*g.targets, params[0])
            if kind == G2
            else _g4_template(*g.targets, params[0])
        )
        wrapped = [control_wrap(h, ctrls) for h in template]
        return _flatten_cx(wrapped)
    raise ValueError(f"unknown gate kind {kind!r}")


def _flatten_cx(gates: Iterable[Gate]) -> list[Gate]:
    out = []
    for g in gates:
        if not g.controls and g.kind in (X, RY, RZ, CNOT):
            out.append(g)
        else:
            out.extend(_expand_cx(g))
    return out


def _rewrite_zz(g: Gate) -> list[Gate]:
    """Map a CX-native gate onto {ZZMax, PhasedX, Rz}."""
    if g.kind == RZ:
        return [g]
    if g.kind == RY:
        return [phasedx_gate(g.targets[0], g.params[0], math.pi / 2)]
    if g.kind == X:
        return [phasedx_gate(g.targets[0], math.pi, 0.0)]
    if g.kind == CNOT:
        c, t = g.targets
        h_t = [rz_gate(t, math.pi), phasedx_gate(t, math.pi / 2, math.pi / 2)]
        return h_t + [zzmax_gate(c, t), rz_gate(c, -math.pi / 2), rz_gate(t, -math.pi / 2)] + h_t
    raise ValueError(f"not a CX-native gate: {g.kind}")


def decompose_gate(g: Gate, gateset: GateSet) -> list[Gate]:
    """Expand one gate into the target set, eliminating all extra controls."""
    if g.kind in gateset.kinds and not g.controls:
        return [g]
    cx_gates = _expand_cx(g)
    if gateset.name == "cx":
        return cx_gates
    out = []
    for h in cx_gates:
        out.extend(_rewrite_zz(h))
    return out


# --- peephole simplification and compilation ---------------------------------


def _null_rotation(g: Gate) -> bool:
    if g.kind in (RY, RZ, PHASEDX):
        period = 2 * math.pi if not g.controls else 4 * math.pi
        angle = g.params[0]
    elif g.kind in (G2, G4):
        period = 2 * math.pi
        angle = g.params[0]
    else:
        return False
    return abs(math.remainder(float(angle), period)) < _NULL_EPS


def _mergeable(a: Gate, b: Gate) -> Gate | None:
    if a.kind != b.kind or a.targets != b.targets or a.controls != b.controls:
        return None
    if a.kind in (RY, RZ, G2, G4):
        return dataclasses.replace(a, params=(float(a.params[0]) + float(b.params[0]),))
    if a.kind == PHASEDX and a.params[1] == b.params[1]:
        return dataclasses.replace(a, params=(float(a.params[0]) + float(b.params[0]), a.params[1]))
    return None


def _peephole_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    out: list[Gate | None] = []
    last_on_wire: dict[int, int] = {}
    changed = False
    for g in gates:
        if _null_rotation(g):
            changed = True
            continue
        wires = set(g.wires)
        prev_idx = max((last_on_wire.get(q, -1) for q in wires), default=-1)
        prev = out[prev_idx] if prev_idx >= 0 else None
        if prev is not None and set(prev.wires) == wires:
            if (
                g.kind in _SELF_INVERSE
                and prev.kind == g.kind
                and prev.targets == g.targets
                and prev.controls == g.controls
            ):
                out[prev_idx] = None
                changed = True
                continue
            merged = _mergeable(prev, g)
            if merged is not None:
                out[prev_idx] = None if _null_rotation(merged) else merged
                changed = True
                continue
        out.append(g)
        idx = len(out) - 1
        for q in wires:
            last_on_wire[q] = idx
    return [g for g in out if g is not None], changed


def _is_1q(g: Gate) -> bool:
    return len(g.targets) == 1 and not g.controls


def _consolidate_1q_runs(gates: list[Gate]) -> tuple[list[Gate], bool]:
    """Replace runs of adjacent one-qubit gates on a wire by at most
    PhasedX + Rz whenever that shortens the circuit."""
    runs: dict[int, list[int]] = {}
    finished: list[list[int]] = []

    def flush(q: int) -> None:
        run = runs.pop(q, None)
        if run:
            finished.append(run)

    for idx, g in enumerate(gates):
        if _is_1q(g):
            runs.setdefault(g.targets[0], []).append(idx)
        else:
            for q in g.wires:
                flush(q)
    for q in list(runs):
        flush(q)

    replacements: dict[int, list[Gate]] = {}
    removed: set[int] = set()
    changed = False
    for run in finished:
        if len(run) < 2:
            continue
        q = gates[run[0]].targets[0]
        acc = np.eye(2, dtype=complex)
        for idx in run:
            g = gates[idx]
            acc = gate_matrix(g.kind, g.numeric_params()) @ acc
        new_gates = _emit_zz_1q(q, acc)
        if len(new_gates) < len(run):
            replacements[run[0]] = new_gates
            removed.update(run)
            changed = True

    if not changed:
        return gates, False
    out = []
    for idx, g in enumerate(gates):
        if idx in replacements:
            out.extend(replacements[idx])
        elif idx not in removed:
            out.append(g)
    return out, True


def _emit_zz_1q(q: int, u: np.ndarray) -> list[Gate]:
    """u (up to phase) as [PhasedX(alpha, beta), Rz(gamma)], dropping trivial
    factors. Uses u = Rz(a) Rx(b) Rz(c) with beta = -c, alpha = b, gamma = a + c."""
    a, b, c, _ = _euler_angles(u, "x")
    out = []
    if abs(math.remainder(b, 2 * math.pi)) > _NULL_EPS:
        out.append(phasedx_gate(q, b, -c))
    gamma = a + c
    if abs(math.remainder(gamma, 2 * math.pi)) > _NULL_EPS:
        out.append(rz_gate(q, gamma))
    return out


def compile_circuit(c: Circuit, gateset: GateSet) -> Circuit:
    """Expand every gate into the target set, then simplify to a fixed point.

    Simplification: zero-angle elision, adjacent self-inverse cancellation and
    same-axis rotation merging (wire-adjacency aware), plus one-qubit run
    consolidation for the ZZ-native set. Preserves the unitary up to a global
    phase.
    """
    if c.parameters:
        raise UnboundParameterError(f"compile needs bound angles; free: {c.parameters}")
    gates: list[Gate] = []
    for g in c.gates:
        gates.extend(decompose_gate(g, gateset))
    for _ in range(10_000):
        gates, changed = _peephole_pass(gates)
        if gateset.name == "zz":
            gates, consolidated = _consolidate_1q_runs(gates)
            changed = changed or consolidated
        if not changed:
            break
    else:
        raise RuntimeError("simplification did not reach a fixed point")
    for g in gates:
        if g.kind not in gateset.kinds or g.controls:
            raise RuntimeError(f"gate {g} escaped compilation to {gateset.name}")
    return Circuit(c.n_qubits, tuple(gates))


# --- resource accounting ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ResourceCount:
    """Gate tallies: per-kind counts, gates spanning exactly two wires, and
    greedy as-soon-as-possible depth."""

    n_gates: int
    counts: dict[str, int]
    two_qubit_total: int
    depth: int


def count_resources(c: Circuit) -> ResourceCount:
    counts: dict[str, int] = {}
    two_qubit = 0
    layer: dict[int, int] = {}
    depth = 0
    for g in c.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
        wires = g.wires
        if len(wires) == 2:
            two_qubit += 1
        at = 1 + max((layer.get(q, 0) for q in wires), default=0)
        for q in wires:
            layer[q] = at
        depth = max(depth, at)
    return ResourceCount(len(c.gates), counts, two_qubit, depth)
