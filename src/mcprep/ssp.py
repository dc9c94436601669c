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
"""
from __future__ import annotations

import dataclasses
import itertools
import math

from .circuits import Circuit, Gate, cnot_gate, ry_gate, x_gate
from .configs import OnConfig, StateSpec, hamming, xor_support


class MergeError(ValueError):
    """Raised when a support set cannot be merged further."""


@dataclasses.dataclass(frozen=True)
class MergeStep:
    """One disentangling move: merged loses its amplitude to survivor."""

    merged: OnConfig
    survivor: OnConfig
    pivot: int
    conjugations: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]
    angle: float
    pivot_rotation: float


def merge_angle(c1: float, c2: float) -> float:
    """Angle in (-pi, pi] whose sine is c2 normalized by hypot(c1, c2) and
    whose cosine carries the sign of c1."""
    if c1 == 0.0 and c2 == 0.0:
        raise MergeError("cannot derive an angle from two zero coefficients")
    return math.atan2(c2, c1)


def _conjugated(config: OnConfig, pivot: int, others: tuple[int, ...]) -> OnConfig:
    if not config[pivot] or not others:
        return config
    return config.flipped(others)


def _greedy_controls(
    y_ref: OnConfig, pivot: int, threats: list[OnConfig]
) -> tuple[tuple[int, int], ...]:
    chosen: dict[int, int] = {}
    remaining = list(threats)
    n = y_ref.n_qubits
    while remaining:
        best_q, best_hits = -1, 0
        for q in range(n):
            if q == pivot or q in chosen:
                continue
            hits = sum(1 for z in remaining if z[q] != y_ref[q])
            if hits > best_hits:
                best_q, best_hits = q, hits
        if best_hits == 0:
            raise MergeError("support strings are not distinguishable by controls")
        chosen[best_q] = y_ref[best_q]
        remaining = [z for z in remaining if z[best_q] == y_ref[best_q]]
    return tuple(sorted(chosen.items()))


def _pair_cost(
    pair: tuple[OnConfig, OnConfig], support: list[OnConfig]
) -> tuple[int, int]:
    a, b = pair
    diffs = xor_support(a, b)
    pivot, others = diffs[0], tuple(diffs[1:])
    images = {x: _conjugated(x, pivot, others) for x in support}
    threats = [images[x] for x in support if x not in pair]
    controls = _greedy_controls(images[b], pivot, threats)
    return len(diffs), len(controls)


def select_merge_pair(support) -> tuple[OnConfig, OnConfig]:
    """Cheapest pair to merge; returns (merged, survivor) where the survivor
    holds 0 on the pivot qubit."""
    strings = sorted(support, key=str)
    if len(strings) < 2:
        raise MergeError("need at least two support strings to merge")
    pairs = list(itertools.combinations(strings, 2))
    # The distance leads the key, so only pairs at the minimum distance can
    # win and only they need the support imaged and the controls covered.
    distances = [hamming(a, b) for a, b in pairs]
    nearest = min(distances)
    best = min(
        (pair for pair, d in zip(pairs, distances) if d == nearest),
        key=lambda pair: (_pair_cost(pair, strings), str(pair[0]), str(pair[1])),
    )
    pivot = xor_support(*best)[0]
    return best if best[0][pivot] else (best[1], best[0])


def plan_merges(spec: StateSpec) -> tuple[list[MergeStep], OnConfig]:
    """Disentangling schedule and the final surviving string."""
    amplitudes: dict[OnConfig, float] = {x: c for c, x in spec.entries}
    steps: list[MergeStep] = []
    while len(amplitudes) > 1:
        merged, survivor = select_merge_pair(amplitudes)
        diffs = xor_support(merged, survivor)
        pivot, others = diffs[0], tuple(diffs[1:])

        images = {_conjugated(x, pivot, others): c for x, c in amplitudes.items()}
        y1 = _conjugated(merged, pivot, others)
        y2 = _conjugated(survivor, pivot, others)
        threats = [z for z in images if z not in (y1, y2)]
        controls = _greedy_controls(y2, pivot, threats)

        # The survivor always holds 0 on the pivot, so Ry(phi) must send
        # |1> cos + |0> sin on the pivot wire to |0> with weight hypot.
        c1, c2 = images[y1], images[y2]
        phi = 2 * math.atan2(-c1, c2)
        steps.append(
            MergeStep(merged, survivor, pivot, others, controls, merge_angle(c1, c2), phi)
        )
        del images[y1]
        images[y2] = math.hypot(c1, c2)
        amplitudes = images
    return steps, next(iter(amplitudes))


def _disentangle_gates(step: MergeStep, angle) -> list[Gate]:
    out: list[Gate] = [cnot_gate(step.pivot, q) for q in step.conjugations]
    out.append(ry_gate(step.pivot, angle, step.controls))
    return out


def synthesize_ssp(spec: StateSpec, symbolic: bool = False) -> Circuit:
    """Preparation circuit mapping |0...0> to the specified state.

    One (possibly controlled) pivot rotation per merge; symbolic mode names
    those angles theta_1.. in merge order while keeping the CNOT/X frame.
    """
    steps, survivor = plan_merges(spec)
    gates: list[Gate] = [x_gate(q) for q in survivor.occupied]
    for i, step in enumerate(reversed(steps)):
        index = len(steps) - i
        angle = f"theta_{index}" if symbolic else -step.pivot_rotation
        gates.append(ry_gate(step.pivot, angle, step.controls))
        gates.extend(cnot_gate(step.pivot, q) for q in reversed(step.conjugations))
    return Circuit(spec.n_q, tuple(gates))


def natural_ssp_binding(spec: StateSpec) -> dict[str, float]:
    """Parameter values under which the symbolic circuit prepares the spec."""
    steps, _ = plan_merges(spec)
    return {f"theta_{i}": -step.pivot_rotation for i, step in enumerate(steps, start=1)}


def disentangling_circuit(spec: StateSpec) -> Circuit:
    """The forward (state to |0...0>) direction, mainly for inspection."""
    steps, survivor = plan_merges(spec)
    gates: list[Gate] = []
    for step in steps:
        gates.extend(_disentangle_gates(step, step.pivot_rotation))
    gates.extend(x_gate(q) for q in survivor.occupied)
    return Circuit(spec.n_q, tuple(gates))
