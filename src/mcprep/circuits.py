"""Gate-level intermediate representation and compilation.

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
target is the most significant bit of the gate's local basis. The matrices of
each angle-bearing kind have one definition, ``_GATE_MATRICES``, which builds
those of many gates in one numpy pass; ``gate_matrix`` is its one-row case.
Compilation lowers to the CX-native set, simplifies there, and maps to the
ZZ-native set last (as t|ket> rebases last: Sivarajah et al., Quantum Sci.
Technol. 6, 014003, 2021). Controlled rotations expand through a Gray-code
multiplexor with closed-form angles, +-angle / 2^k for k controls (Möttönen
et al., PRL 93, 130502, 2004). An X under three or more controls expands
through the square-root recursion of Barenco et al. (PRA 52, 3457, 1995,
Lemma 7.5), whose controlled roots X**p = exp(i pi p/2) Rx(pi p) have
closed-form angles too.

Every angle is a finite real number, in radians everywhere in memory; ``Gate``
rejects any other value, so nothing downstream checks again. Serialization
converts to units of pi at the file boundary (see fileio).
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
import numbers
import struct
from typing import Iterable

from . import _lazy_numpy

np = _lazy_numpy()

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


@dataclasses.dataclass(frozen=True)
class Gate:
    """Single gate instance: kind, target wires, optional controls, angles
    (finite real numbers, in radians)."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        arity = TARGET_ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.targets) != arity:
            raise ValueError(f"{self.kind} needs {arity} targets, got {self.targets}")
        if arity > 1 and len(set(self.targets)) != arity:
            raise ValueError(f"repeated target in {self.targets}")
        if len(self.params) != PARAM_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} needs {PARAM_ARITY[self.kind]} angles, got {len(self.params)}"
            )
        for p in self.params:
            if not isinstance(p, numbers.Real) or not math.isfinite(p):
                raise ValueError(f"{self.kind} angle {p!r} must be a finite real number")
        if not self.controls:
            return
        ctrl_qubits = [q for q, _ in self.controls]
        if len(set(ctrl_qubits)) != len(ctrl_qubits):
            raise ValueError(f"repeated control qubit in {self.controls}")
        if set(ctrl_qubits) & set(self.targets):
            raise ValueError(f"controls {self.controls} overlap targets {self.targets}")
        if any(s not in (0, 1) for _, s in self.controls):
            raise ValueError(f"control states must be 0 or 1: {self.controls}")

    @property
    def wires(self) -> tuple[int, ...]:
        return self.targets + tuple(q for q, _ in self.controls) if self.controls else self.targets


_new = object.__new__


def _checked_gate(kind: str, targets: tuple, controls: tuple, params: tuple) -> Gate:
    """A Gate from fields its caller has already checked as __post_init__
    would, built without checking them again."""
    g = _new(Gate)
    fields = g.__dict__
    fields["kind"], fields["targets"], fields["controls"], fields["params"] = (
        kind, targets, controls, params
    )
    return g


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


def _checked_circuit(n_qubits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A Circuit whose wires its caller has already checked, built without
    walking its gates again."""
    c = _new(Circuit)
    c.__dict__.update(n_qubits=n_qubits, gates=gates)
    return c


# --- gate matrices -----------------------------------------------------------


def _read_only(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@functools.cache
def _fixed_matrices() -> dict[str, np.ndarray]:
    """Matrices of the parameterless kinds, built at first use and shared
    read-only."""
    zz_phase = np.exp(-1j * np.pi / 4)
    return {
        X: _read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
        CNOT: _read_only(np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )),
        ZZMAX: _read_only(np.diag([zz_phase, zz_phase.conjugate(), zz_phase.conjugate(), zz_phase])),
        SWAP: _read_only(np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )),
    }


def _rotation_stack(angles: np.ndarray, off_diagonal: complex) -> np.ndarray:
    """[[c, w s], [-conj(w) s, c]], with c and s the cosine and sine of half
    of each angle: Ry for w = -1, Rx for w = -1j."""
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    m = np.empty((len(angles), 2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = c
    m[:, 0, 1] = off_diagonal * s
    m[:, 1, 0] = -np.conj(off_diagonal) * s
    return m


def _rz_stack(angles: np.ndarray) -> np.ndarray:
    m = np.zeros((len(angles), 2, 2), dtype=complex)
    m[:, 0, 0] = np.exp(-1j * angles / 2)
    m[:, 1, 1] = np.exp(1j * angles / 2)
    return m


def _pattern_stack(angles: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros((len(angles), size, size), dtype=complex)
    m[:, range(size), range(size)] = 1
    m[:, lo, lo] = m[:, hi, hi] = c
    m[:, lo, hi] = s
    m[:, hi, lo] = -s
    return m


# The one definition of the matrices of each angle-bearing kind: the stack of
# those of many gates, from the (gates, angles) array of their angles, in one
# numpy pass.
_GATE_MATRICES = {
    RY: lambda a: _rotation_stack(a[:, 0], -1.0),
    RZ: lambda a: _rz_stack(a[:, 0]),
    PHASEDX: lambda a: _rz_stack(a[:, 1]) @ _rotation_stack(a[:, 0], -1j) @ _rz_stack(-a[:, 1]),
    G2: lambda a: _pattern_stack(a[:, 0], 4, 0b01, 0b10),
    G4: lambda a: _pattern_stack(a[:, 0], 16, 0b0011, 0b1100),
}


def gate_matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """Matrix over the gate's targets only (controls handled by the caller).

    Basis ordering: first target = most significant bit. The matrices of the
    parameterless kinds are shared and read-only; the others are row 0 of a
    one-row _GATE_MATRICES stack.
    """
    fixed = _fixed_matrices().get(kind)
    if fixed is not None:
        return fixed
    if kind not in _GATE_MATRICES:
        raise ValueError(f"unknown gate kind {kind!r}")
    return _GATE_MATRICES[kind](np.array([params], dtype=float))[0]


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


# --- expansion to the CX-native set and mapping to the ZZ-native set ---------
#
# Expansion, simplification and mapping work on private records, plain
# (kind, targets, controls, params) tuples that skip Gate's validation;
# compile_circuit builds Gate objects from them once, at the end.


def _cnot(control: int, target: int) -> tuple:
    return (CNOT, (control, target), (), ())


def _rz(q: int, angle, controls=()) -> tuple:
    return (RZ, (q,), controls, (angle,))


def _ry(q: int, angle, controls=()) -> tuple:
    return (RY, (q,), controls, (angle,))


def _phasedx(q: int, alpha, beta) -> tuple:
    return (PHASEDX, (q,), (), (alpha, beta))


def _multiplexed_rotation(kind: str, target: int, controls, angle: float) -> list[tuple]:
    """Rotation of the target by `angle` exactly when every control matches its
    state, and by zero for every other control pattern.

    Gray-code multiplexor (Möttönen et al., PRL 93, 130502, 2004): 2^k
    rotations a_i, each followed by a CNOT from the control whose bit differs
    between the Gray codes g_i = i ^ (i >> 1) and g_(i+1), cyclically. Control
    pattern b turns the target by sum_i S[b, i] a_i with
    S[b, i] = (-1)^popcount(b & g_i). S is a Sylvester-Hadamard matrix with
    permuted columns, so S^-1 = S^T / 2^k, and turning pattern p alone by
    `angle` takes a_i = S[p, i] angle / 2^k. Control states enter through p,
    so 0-state controls cost nothing extra.
    """
    k = len(controls)
    # Control j corresponds to bit k-1-j of both the pattern and the Gray codes.
    pattern = 0
    for j, (_, state) in enumerate(controls):
        pattern |= state << (k - 1 - j)
    share = angle / 2**k
    out = []
    for i in range(2**k):
        gray, after = i ^ i >> 1, (i + 1) % 2**k
        signed = -share if (pattern & gray).bit_count() % 2 else share
        bit = (gray ^ after ^ after >> 1).bit_length() - 1
        out.append((kind, (target,), (), (signed,)))
        out.append(_cnot(controls[k - 1 - bit][0], target))
    return out


def _euler_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Return (a, b, c) with u = exp(i delta) Rz(a) Rx(b) Rz(c) for some phase
    delta: the Rz Ry Rz form with a - c larger by pi, as
    Rx(b) = Rz(-pi/2) Ry(b) Rz(pi/2)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    delta = math.atan2(det.imag, det.real) / 2
    su = u * np.exp(-1j * delta)
    b = 2 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[1, 0]) < 1e-14:
        a, c = -2 * float(np.angle(su[0, 0])), 0.0
    elif abs(su[0, 0]) < 1e-14:
        a, c = 2 * float(np.angle(su[1, 0])) + math.pi, 0.0
    else:
        apc = -2 * float(np.angle(su[0, 0]))
        amc = 2 * float(np.angle(su[1, 0])) + math.pi
        a, c = (apc + amc) / 2, (apc - amc) / 2
    return a, b, c


def _toffoli(c1: int, c2: int, t: int) -> list[tuple]:
    """Standard six-CNOT Toffoli with T rotations written as Rz(pi/4)."""
    quarter = math.pi / 4
    h_t = [_rz(t, math.pi), _ry(t, math.pi / 2)]
    out = []
    out += h_t
    out.append(_cnot(c2, t))
    out.append(_rz(t, -quarter))
    out.append(_cnot(c1, t))
    out.append(_rz(t, quarter))
    out.append(_cnot(c2, t))
    out.append(_rz(t, -quarter))
    out.append(_cnot(c1, t))
    out.append(_rz(c2, quarter))
    out.append(_rz(t, quarter))
    out += h_t
    out.append(_cnot(c1, c2))
    out.append(_rz(c1, quarter))
    out.append(_rz(c2, -quarter))
    out.append(_cnot(c1, c2))
    return out


def _controlled_x_power(control: int, q: int, p: float) -> list[tuple]:
    """X**p on q controlled by `control`, 0 < |p| < 1.

    X**p = exp(i pi p/2) Rx(pi p) = exp(i pi p/2) Rz(-s) Ry(pi |p|) Rz(s) with
    s = copysign(pi/2, p). The two-CNOT conjugation form applies the rotation
    under the control; Rz(pi p/2) on the control supplies the phase.
    """
    s, half = math.copysign(math.pi / 2, p), math.pi * abs(p) / 2
    conjugated = [_cnot(control, q), _ry(q, -half), _cnot(control, q), _ry(q, half)]
    return [_rz(q, s), *conjugated, _rz(q, -s), _rz(control, math.pi * p / 2)]


def _mcx_power(controls: tuple[int, ...], t: int, p: float) -> list[tuple]:
    """X**p on t under at least one control, all on state 1, no ancilla.

    Square-root recursion (Barenco et al., PRA 52, 3457, 1995, Lemma 7.5):
    X**(p/2) and then X**(-p/2) under the last control, each followed by an X
    on the last control under the rest, then X**(p/2) under the rest.
    """
    if len(controls) == 1:
        return _controlled_x_power(controls[0], t, p)
    rest, last = controls[:-1], controls[-1]
    return [
        *_controlled_x_power(last, t, p / 2),
        *_mcx_ones(rest, last),
        *_controlled_x_power(last, t, -p / 2),
        *_mcx_ones(rest, last),
        *_mcx_power(rest, t, p / 2),
    ]


@functools.cache
def _mcx_template(k: int) -> tuple[tuple, ...]:
    """X on wire k controlled by wires 0..k-1, k >= 3, as records, built once
    per control count."""
    return tuple(_mcx_power(tuple(range(k)), k, 1.0))


def _mcx_ones(controls: tuple[int, ...], t: int) -> list[tuple]:
    if len(controls) == 0:
        return [(X, (t,), (), ())]
    if len(controls) == 1:
        return [_cnot(controls[0], t)]
    if len(controls) == 2:
        return _toffoli(controls[0], controls[1], t)
    wires = controls + (t,)
    return [
        (kind, tuple(wires[i] for i in targets), (), params)
        for kind, targets, _, params in _mcx_template(len(controls))
    ]


def _mcx(controls: tuple[tuple[int, int], ...], t: int) -> list[tuple]:
    """Multi-controlled X, X-conjugating the 0-state controls."""
    flips = [(X, (q,), (), ()) for q, s in controls if s == 0]
    inner = _mcx_ones(tuple(q for q, _ in controls), t)
    return flips + inner + flips[::-1]


def _g2_template(a: int, b: int, theta: float) -> list[tuple]:
    """Pattern rotation 01/10: conjugate by CNOT, rotate the first wire
    controlled on the second. Exact, no phase residue."""
    return [
        _cnot(a, b),
        _ry(a, -theta),
        _cnot(b, a),
        _ry(a, theta),
        _cnot(b, a),
        _cnot(a, b),
    ]


def _g4_template(a: int, b: int, c: int, d: int, theta: float) -> list[tuple]:
    """Pattern rotation 0011/1100: three CNOTs fold the pair onto wire `a`,
    then a Gray-code multiplexed Ry rotates it under the (b,c,d) = (0,1,1)
    pattern. Exactly 14 two-qubit gates."""
    fold = [_cnot(a, b), _cnot(a, c), _cnot(a, d)]
    core = _multiplexed_rotation(RY, a, ((b, 0), (c, 1), (d, 1)), -2 * theta)
    return fold + core + fold[::-1]


def _expand_cx(rec: tuple) -> list[tuple]:
    """Rewrite one record into the CX-native kinds {CNOT, Ry, Rz, X}."""
    kind, targets, ctrls, params = rec
    params = tuple(map(float, params))

    if kind == SWAP and not ctrls:
        # The controlled form below emits the three CNOTs in the other order.
        a, b = targets
        return [_cnot(a, b), _cnot(b, a), _cnot(a, b)]
    if kind == X:
        return _mcx(ctrls, targets[0])
    if kind == CNOT:
        return _mcx(ctrls + ((targets[0], 1),), targets[1])
    if kind in (RY, RZ):
        if not ctrls:
            return [rec]
        return _multiplexed_rotation(kind, targets[0], ctrls, params[0])
    if kind == PHASEDX:
        alpha, beta = params
        q = targets[0]
        seq = [
            _rz(q, math.pi / 2 - beta, ctrls),
            _ry(q, alpha, ctrls),
            _rz(q, beta - math.pi / 2, ctrls),
        ]
        return _flatten_cx(seq)
    if kind == ZZMAX:
        a, b = targets
        cnot = (CNOT, (a, b), ctrls, ())
        return _flatten_cx([cnot, _rz(b, math.pi / 2, ctrls), cnot])
    if kind == SWAP:
        a, b = targets
        middle = (X, (b,), ctrls + ((a, 1),), ())
        return _flatten_cx([_cnot(b, a), middle, _cnot(b, a)])
    if kind in (G2, G4):
        template = (_g2_template if kind == G2 else _g4_template)(*targets, params[0])
        # Template records carry no controls and stay on the gate's targets,
        # which the gate's controls never touch.
        wrapped = [(k, t, ctrls, p) for k, t, _, p in template]
        return _flatten_cx(wrapped)
    raise ValueError(f"unknown gate kind {kind!r}")


def _flatten_cx(recs: Iterable[tuple]) -> list[tuple]:
    return [out for rec in recs for out in _expand(rec, CX_NATIVE)]


def _expand(rec: tuple, gateset: GateSet) -> list[tuple]:
    """One record as uncontrolled CX-native records, or unchanged when it is
    uncontrolled and already native to the target set."""
    if rec[0] in gateset.kinds and not rec[2]:
        return [rec]
    return _expand_cx(rec)


def _rewrite_zz(rec: tuple) -> tuple[tuple, ...]:
    """Map an uncontrolled CX- or ZZ-native record onto {ZZMax, PhasedX, Rz}."""
    kind, targets, _, params = rec
    if kind in ZZ_NATIVE.kinds:
        return (rec,)
    if kind == RY:
        return (_phasedx(targets[0], params[0], math.pi / 2),)
    return _rewrite_zz_fixed(rec)


@functools.cache
def _rewrite_zz_fixed(rec: tuple) -> tuple[tuple, ...]:
    """_rewrite_zz of the CX-native kinds without angles, once per process."""
    kind, targets, _, _ = rec
    if kind == X:
        return (_phasedx(targets[0], math.pi, 0.0),)
    if kind == CNOT:
        c, t = targets
        h_t = (_rz(t, math.pi), _phasedx(t, math.pi / 2, math.pi / 2))
        return (*h_t, (ZZMAX, (c, t), (), ()), _rz(c, -math.pi / 2), _rz(t, -math.pi / 2), *h_t)
    raise ValueError(f"not a CX-native gate: {kind}")


# --- peephole simplification and compilation ---------------------------------


# Expansion hands the simplifier only uncontrolled records, CX-native or native
# to the target set, so a record's targets are its wires. The pass runs before
# the mapping to zz, where a CNOT pair still cancels.
_ROTATIONS = frozenset({RY, RZ, PHASEDX})
_SELF_INVERSE = frozenset({X, CNOT})


def _null_rotation(rec: tuple) -> bool:
    kind, _, _, params = rec
    return kind in _ROTATIONS and abs(math.remainder(float(params[0]), 2 * math.pi)) < _NULL_EPS


def _combined(prev: tuple, rec: tuple) -> tuple | None:
    """What replaces prev, the latest kept record on rec's wires, when rec
    follows it: the merged rotation, () when the pair cancels or merges to a
    null angle, or None when no rule combines them. Every rule needs the same
    targets in the same order."""
    kind, targets, controls, params = rec
    if prev[0] != kind or prev[1] != targets:
        return None
    if kind in _SELF_INVERSE:
        return ()
    # PhasedX merges only with the same second angle, beta.
    if kind not in _ROTATIONS or prev[3][1:] != params[1:]:
        return None
    merged = (kind, targets, controls, (float(prev[3][0]) + float(params[0]), *prev[3][1:]))
    return () if _null_rotation(merged) else merged


def _peephole_pass(recs: list[tuple]) -> list[tuple]:
    """Null elision, self-inverse cancellation and same-axis merging in one
    left-to-right pass whose output is a fixed point of all three rules.

    Each wire keeps a stack of the positions of its kept records. A record
    combines only with an earlier one on the same targets, which is then the
    top of every one of their wires' stacks; when the pair cancels, or merges
    to a null angle, that record is popped off them. So every record meets
    the latest kept record on its wires.
    """
    out: list[tuple | None] = []
    on_wire: dict[int, list[int]] = collections.defaultdict(list)
    for rec in recs:
        if _null_rotation(rec):
            continue
        wires = rec[1]
        if len(wires) == 1:
            stack = on_wire[wires[0]]
            prev_idx = stack[-1] if stack else -1
        else:
            prev_idx = max([stack[-1] if (stack := on_wire[q]) else -1 for q in wires])
        if prev_idx >= 0 and (combined := _combined(out[prev_idx], rec)) is not None:
            out[prev_idx] = combined or None
            if not combined:
                for q in wires:
                    on_wire[q].pop()
            continue
        idx = len(out)
        out.append(rec)
        for q in wires:
            on_wire[q].append(idx)
    return [rec for rec in out if rec is not None]


def _run_matrix(run: list[tuple]) -> np.ndarray:
    acc = np.eye(2, dtype=complex)
    for kind, _, _, params in run:
        acc = gate_matrix(kind, params) @ acc
    return acc


def _run_body(run: list[tuple], memo: dict) -> list[tuple[str, tuple]]:
    """The (kind, params) of at most PhasedX + Rz for a run of one-qubit
    records on one wire. A two-gate body that replaces a longer run is
    consolidated once more, in case that drops a gate. `memo` maps the run's
    kinds and exact angle bits (-0.0 is not 0.0 here) to the body, for one
    compilation."""
    kinds, angles = [], []
    for kind, _, _, params in run:
        kinds.append(kind)
        angles.extend(params)
    key = (tuple(kinds), struct.pack(f"{len(angles)}d", *angles))
    body = memo.get(key)
    if body is None:
        body = _emit_zz_1q(_run_matrix(run))
        if len(body) == 2 < len(run):
            again = _emit_zz_1q(_run_matrix([(kind, (), (), p) for kind, p in body]))
            if len(again) < 2:
                body = again
        memo[key] = body
    return body


def _consolidate_1q_runs(recs: list[tuple], memo: dict) -> list[tuple]:
    """Replace runs of adjacent one-qubit gates on a wire by at most
    PhasedX + Rz whenever that shortens the circuit.

    Run once, after the mapping of the simplified records to zz, it leaves a
    fixed point of every rule: a replacement's angles are not null, and its
    neighbours on its wire are ZZMax gates, which no rule combines.
    """
    runs: dict[int, list[int]] = {}
    finished: list[list[int]] = []
    for idx, (_, wires, _, _) in enumerate(recs):
        if len(wires) == 1:
            runs.setdefault(wires[0], []).append(idx)
        else:
            finished.extend(runs.pop(q) for q in wires if q in runs)
    finished.extend(runs.values())

    replacements: dict[int, list[tuple]] = {}
    removed: set[int] = set()
    for run in finished:
        if len(run) < 2:
            continue
        body = _run_body([recs[idx] for idx in run], memo)
        if len(body) < len(run):
            q = recs[run[0]][1][0]
            replacements[run[0]] = [(kind, (q,), (), params) for kind, params in body]
            removed.update(run)

    if not replacements:
        return recs
    out = []
    for idx, rec in enumerate(recs):
        if idx not in removed:
            out.append(rec)
        elif idx in replacements:
            out.extend(replacements[idx])
    return out


def _emit_zz_1q(u: np.ndarray) -> list[tuple[str, tuple[float, ...]]]:
    """u (up to phase) as (kind, params) of [PhasedX(alpha, beta), Rz(gamma)],
    dropping trivial factors. Uses u = Rz(a) Rx(b) Rz(c) with beta = -c,
    alpha = b, gamma = a + c."""
    a, b, c = _euler_angles(u)
    out = []
    if abs(math.remainder(b, 2 * math.pi)) > _NULL_EPS:
        out.append((PHASEDX, (b, -c)))
    gamma = a + c
    if abs(math.remainder(gamma, 2 * math.pi)) > _NULL_EPS:
        out.append((RZ, (gamma,)))
    return out


def compile_circuit(c: Circuit, gateset: GateSet) -> Circuit:
    """Lower a circuit to the target set in three stages, each run once:

    1. Expand every gate into uncontrolled CX-native records; one that is
       uncontrolled and native to the target set passes through unchanged.
    2. Simplify with one peephole pass (zero-angle elision, adjacent
       self-inverse cancellation and same-axis rotation merging, wire-adjacency
       aware).
    3. For the ZZ-native set only, map each record with _rewrite_zz, then
       consolidate the one-qubit runs.

    Each stage leaves nothing for a second one to do. Preserves the unitary up
    to a global phase.
    """
    recs = _peephole_pass([
        rec for g in c.gates for rec in _expand((g.kind, g.targets, g.controls, g.params), gateset)
    ])
    if gateset.name == "zz":
        recs = _consolidate_1q_runs([m for rec in recs for m in _rewrite_zz(rec)], {})
    for rec in recs:
        if rec[0] not in gateset.kinds or rec[2]:
            raise RuntimeError(f"gate {Gate(*rec)} escaped compilation to {gateset.name}")
    # Expansion emits wires only from the input's gates, so the register holds them.
    return _checked_circuit(c.n_qubits, tuple(itertools.starmap(_checked_gate, recs)))


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
        wires = g.targets
        if g.controls:
            wires += tuple(q for q, _ in g.controls)
        if len(wires) == 1:
            q = wires[0]
            at = layer[q] = layer.get(q, 0) + 1
        else:
            if len(wires) == 2:
                two_qubit += 1
            at = 1 + max([layer.get(q, 0) for q in wires])
            for q in wires:
                layer[q] = at
        if at > depth:
            depth = at
    return ResourceCount(len(c.gates), counts, two_qubit, depth)
