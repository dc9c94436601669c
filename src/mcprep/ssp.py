"""Sparse state preparation by pairwise merging.

The circuit is built in the disentangling direction: repeatedly pick two
support strings, fold their difference onto a single pivot qubit with CNOTs,
and rotate the pivot so one string absorbs both amplitudes. The merged
coefficient is always the positive root of the summed squares, so after the
last merge a layer of X gates clears the surviving string to |0...0>. The
preparation circuit is that sequence inverted and reversed.

Pair selection minimizes (number of differing qubits, number of rotation
controls), breaking ties lexicographically; the pair member holding 0 on the
pivot survives, consistent with driving the register toward |0...0>. All
choices depend only on the support set, never on entry order, so permuting a
specification's entries yields the same structure.

Rotation controls guard against collateral rotation of other support strings:
a greedy cover picks, among the qubits where the folded pair agrees, the ones
that eliminate the most remaining offenders (lowest qubit on ties).

The planner holds the support as ints with qubit 0 as the most significant
bit, as OnConfig.index does, and scores a merge step's pairs on qubit
columns built once for that step: bitsets over the sorted support, so a
greedy round is one popcount per qubit. The selection hands back the
controls it covered for the winning pair, so each step searches its
controls once. Only the final survivor is built as an OnConfig.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

from .circuits import Circuit, Gate, cnot_gate, ry_gate, x_gate
from .configs import OnConfig, StateSpec


class MergeError(ValueError):
    """Raised when a support set cannot be merged further."""


@dataclasses.dataclass(frozen=True)
class MergeStep:
    """One disentangling move: CNOTs from the pivot onto the conjugations
    fold the merged string's difference onto the pivot, then the pivot
    rotation, guarded by the controls, moves its amplitude to the survivor."""

    pivot: int
    conjugations: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]
    pivot_rotation: float


def merge_angle(c1: float, c2: float) -> float:
    """Angle in (-pi, pi] whose sine is c2 normalized by hypot(c1, c2) and
    whose cosine carries the sign of c1."""
    if c1 == 0.0 and c2 == 0.0:
        raise MergeError("cannot derive an angle from two zero coefficients")
    return math.atan2(c2, c1)


def _columns(strings: list[int], n: int) -> list[int]:
    """Per qubit q, the bitset over positions in strings of those with q set."""
    cols = [0] * n
    for i, x in enumerate(strings):
        while x:
            low = x & -x
            cols[n - low.bit_length()] |= 1 << i
            x ^= low
    return cols


def _controls(
    strings: list[int], cols: list[int], i: int, j: int, n: int
) -> tuple[tuple[int, int], ...]:
    """Greedy rotation controls for merging strings[j] into strings[i] < strings[j].

    Every other string is imaged by the fold: one with the pivot set has the
    rest of the difference flipped, so the imaged column of a folded qubit
    is its column XOR the pivot's column.
    """
    merged, survivor = strings[j], strings[i]
    diff = merged ^ survivor
    pivot = n - diff.bit_length()
    fold = diff ^ (1 << (n - 1 - pivot))
    differs = []
    for q, col in enumerate(cols):
        shift = n - 1 - q
        if fold >> shift & 1:
            col ^= cols[pivot]
        differs.append(~col if survivor >> shift & 1 else col)
    differs[pivot] = 0  # the rotation's target is never one of its controls
    others = ((1 << len(strings)) - 1) ^ (1 << i) ^ (1 << j)
    chosen = []
    while others:
        best_q, best_hits = -1, 0
        for q, column in enumerate(differs):
            hits = (column & others).bit_count()
            if hits > best_hits:
                best_q, best_hits = q, hits
        if best_hits == 0:
            raise MergeError("support strings are not distinguishable by controls")
        chosen.append((best_q, survivor >> (n - 1 - best_q) & 1))
        others &= ~differs[best_q]
    return tuple(sorted(chosen))


def select_merge_pair(
    support, n_qubits: int
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Cheapest pair to merge among support strings held as ints, qubit 0 the
    most significant bit; returns (merged, survivor, controls) where the
    survivor holds 0 on the pivot qubit and controls guard its rotation."""
    strings = sorted(support)
    if len(strings) < 2:
        raise MergeError("need at least two support strings to merge")
    pairs = list(itertools.combinations(range(len(strings)), 2))
    # The distance leads the key, so only pairs at the minimum distance can
    # win and only they need their controls covered.
    distances = [(a ^ b).bit_count() for a, b in itertools.combinations(strings, 2)]
    nearest = min(distances)
    cols = _columns(strings, n_qubits)
    # Sorted equal-width ints order like their bit strings, so ties break on
    # the strings; the larger one holds 1 on the pivot and is merged.
    scored = []
    for (i, j), d in zip(pairs, distances):
        if d == nearest:
            controls = _controls(strings, cols, i, j, n_qubits)
            scored.append((len(controls), i, j, controls))
    _, i, j, controls = min(scored)
    return strings[j], strings[i], controls


def plan_merges(spec: StateSpec) -> tuple[list[MergeStep], OnConfig]:
    """Disentangling schedule and the final surviving string."""
    n = spec.n_q
    amplitudes: dict[int, float] = {x.index: c for c, x in spec.entries}
    steps: list[MergeStep] = []
    while len(amplitudes) > 1:
        merged, survivor, controls = select_merge_pair(amplitudes, n)
        diff = merged ^ survivor
        pivot = n - diff.bit_length()
        pivot_bit = 1 << (n - 1 - pivot)
        fold = diff ^ pivot_bit
        conjugations = tuple(q for q in range(pivot + 1, n) if fold >> (n - 1 - q) & 1)

        # The survivor always holds 0 on the pivot, so Ry(phi) must send
        # |1> cos + |0> sin on the pivot wire to |0> with weight hypot.
        c1, c2 = amplitudes.pop(merged), amplitudes[survivor]
        steps.append(MergeStep(pivot, conjugations, controls, 2 * math.atan2(-c1, c2)))
        amplitudes[survivor] = math.hypot(c1, c2)
        amplitudes = {(x ^ fold if x & pivot_bit else x): c for x, c in amplitudes.items()}
    (survivor,) = amplitudes
    return steps, OnConfig(tuple(survivor >> (n - 1 - q) & 1 for q in range(n)))


def synthesize_ssp(spec: StateSpec) -> Circuit:
    """Preparation circuit mapping |0...0> to the specified state.

    One (possibly controlled) pivot Ry per merge, the only angle-bearing
    gates of the circuit, in reverse merge order.
    """
    steps, survivor = plan_merges(spec)
    gates: list[Gate] = [x_gate(q) for q in survivor.occupied]
    for step in reversed(steps):
        gates.append(ry_gate(step.pivot, -step.pivot_rotation, step.controls))
        gates.extend(cnot_gate(step.pivot, q) for q in reversed(step.conjugations))
    return Circuit(spec.n_q, tuple(gates))

