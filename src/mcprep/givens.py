"""Synthesis of particle-conserving state preparation from pattern rotations.

The plan works off an ordered configuration list whose first entry is the
reference. Each later configuration x_e gets one rotation that moves amplitude
from the reference onto x_e:

- distance 2 or 4: a single two- or four-wire pattern rotation whose targets
  are the differing qubits, reference-occupied wires first. An earlier
  configuration gets a control exactly when its pattern on the targets is the
  reference's or the target's; the control sits on the lowest admissible
  qubit where that configuration deviates, with the reference's bit value as
  the control state.
- distance above 4: controlled transpositions walk the reference down to
  distance 2, a controlled two-wire rotation splits the amplitude, and the
  transpositions run again in reverse. The planned rotation is that central
  rotation with the walk attached as its swaps. Transposition controls sit on
  every minority-occupation qubit outside the swapped pair so that each step
  moves exactly the walked reference image and, when an earlier configuration
  coincides with that image, trades the two; the central rotation therefore
  takes its disturbance controls from the earlier configurations' images
  under the walk rather than from their original patterns.

Angles follow a sine recursion: each coefficient is divided by the product of
the cosines of all earlier angles. The synthesized state equals the target up
to a global sign (coefficients are flipped when the reference coefficient is
negative).
"""
from __future__ import annotations

import dataclasses
import functools
import math

from .circuits import Circuit, Gate, g2_gate, g4_gate, swap_gate, x_gate
from .configs import OnConfig, StateSpec, hamming, restricted_hamming, xor_support

ANGLE_UNDERFLOW = 1e-12


class AngleUnderflowError(ValueError):
    """Raised when the cosine product feeding a division collapses to zero."""


class PlanError(ValueError):
    """Raised when a configuration list cannot be planned."""


@dataclasses.dataclass(frozen=True)
class ControlledSwapStep:
    """Transposition of two wires, active only on matching control states."""

    pair: tuple[int, int]
    controls: tuple[tuple[int, int], ...]


@dataclasses.dataclass(frozen=True)
class PlannedRotation:
    """One amplitude-moving rotation on two or four targets under controls.

    Past four flips, swaps holds the controlled transpositions of the walk:
    they run before the rotation and again, reversed, after it, and targets
    and controls belong to the central rotation between the walked images.
    """

    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]
    swaps: tuple[ControlledSwapStep, ...] = ()


@dataclasses.dataclass(frozen=True)
class RotationPlan:
    n_qubits: int
    configs: tuple[OnConfig, ...]
    rotations: tuple[PlannedRotation, ...]


def _ordered_targets(reference: OnConfig, support: list[int]) -> tuple[int, ...]:
    occupied = [q for q in support if reference[q]]
    empty = [q for q in support if not reference[q]]
    return tuple(occupied + empty)


def _disturbance_control(
    previous: OnConfig, target: OnConfig, reference: OnConfig, targets: tuple[int, ...]
) -> tuple[int, int]:
    for q in range(target.n_qubits):
        if q in targets:
            continue
        if previous[q] != target[q]:
            return q, reference[q]
    raise PlanError(
        f"no admissible control distinguishes {previous} from {target} outside {targets}"
    )


def _plan_direct(
    reference: OnConfig,
    target: OnConfig,
    previous: tuple[OnConfig, ...],
    targets: tuple[int, ...],
) -> PlannedRotation:
    controls: dict[int, int] = {}
    for x_p in previous:
        # The rotation moves only the reference's pattern on its targets and
        # that pattern's complement, which is the target's.
        if restricted_hamming(reference, x_p, targets) in (0, len(targets)):
            q, state = _disturbance_control(x_p, target, reference, targets)
            controls.setdefault(q, state)
    return PlannedRotation(targets, tuple(sorted(controls.items())))


def _swap_image(pattern: OnConfig, step: ControlledSwapStep) -> OnConfig:
    """Image of a pattern under one controlled transposition."""
    if all(pattern[q] == s for q, s in step.controls):
        i, j = step.pair
        if pattern[i] != pattern[j]:
            return pattern.flipped((i, j))
    return pattern


def _plan_high_order(
    reference: OnConfig, target: OnConfig, previous: tuple[OnConfig, ...]
) -> PlannedRotation:
    """Walk and central rotation for a pattern pair more than four flips apart.

    Because every transposition is controlled on all minority-occupation
    qubits outside its pair, it exchanges exactly the current walked image
    with the next one and fixes every other equal-weight pattern. Earlier
    configurations may still coincide with an intermediate image and get
    carried along, so the central rotation's disturbance checks run on each
    configuration's image under the walk, not on its original pattern.
    """
    n = reference.n_qubits
    q_minor = 1 if reference.weight <= n // 2 else 0

    walked = reference
    swaps: list[ControlledSwapStep] = []
    while hamming(walked, target) > 2:
        i = next(q for q in range(n) if walked[q] == 1 and target[q] == 0)
        j = next(q for q in range(n) if walked[q] == 0 and target[q] == 1)
        ctrls = tuple(
            (q, q_minor) for q in range(n) if q not in (i, j) and walked[q] == q_minor
        )
        swaps.append(ControlledSwapStep((i, j), ctrls))
        walked = walked.flipped((i, j))

    targets = _ordered_targets(walked, xor_support(walked, target))
    # The central rotation is a direct one from the walked reference, checked
    # against each earlier configuration's image under the walk.
    images = tuple(functools.reduce(_swap_image, swaps, x_p) for x_p in previous)
    central = _plan_direct(walked, target, images, targets)
    return dataclasses.replace(central, swaps=tuple(swaps))


def plan_rotations(configs) -> RotationPlan:
    configs = tuple(
        OnConfig.from_string(x) if isinstance(x, str) else x for x in configs
    )
    if not configs:
        raise PlanError("need at least one configuration")
    widths = {x.n_qubits for x in configs}
    if len(widths) != 1:
        raise PlanError(f"mixed register sizes {sorted(widths)}")
    if len({x.weight for x in configs}) != 1:
        raise PlanError("configurations must share one Hamming weight")
    if len(set(configs)) != len(configs):
        raise PlanError("configurations must be distinct")

    reference = configs[0]
    rotations = []
    for e in range(1, len(configs)):
        x_e = configs[e]
        previous = configs[1:e]
        support = xor_support(reference, x_e)
        if len(support) <= 4:
            targets = _ordered_targets(reference, support)
            rotations.append(_plan_direct(reference, x_e, previous, targets))
        else:
            rotations.append(_plan_high_order(reference, x_e, previous))
    return RotationPlan(reference.n_qubits, configs, tuple(rotations))


def angles_from_coefficients(coefficients) -> list[float]:
    """Rotation angles reproducing the coefficients up to a global sign.

    Angle d is the arcsine of coefficient d divided by the cosine product of
    all earlier angles; the division argument is clamped to [-1, 1]. Raises
    AngleUnderflowError when a division would see a product below 1e-12.
    """
    coeffs = [float(c) for c in coefficients]
    if not coeffs:
        raise ValueError("need at least one coefficient")
    if coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    angles = []
    running = 1.0
    for c in coeffs[1:]:
        if running < ANGLE_UNDERFLOW:
            raise AngleUnderflowError(
                f"cosine product {running:.3e} too small to divide coefficient {c!r}"
            )
        ratio = min(1.0, max(-1.0, c / running))
        theta = math.asin(ratio)
        angles.append(theta)
        running *= math.cos(theta)
    return angles


def _rotation_gates(rot: PlannedRotation, angle) -> list[Gate]:
    walk = [swap_gate(*step.pair, step.controls) for step in rot.swaps]
    rotate = g2_gate if len(rot.targets) == 2 else g4_gate
    return walk + [rotate(*rot.targets, angle, rot.controls)] + walk[::-1]


def synthesize_gr(spec: StateSpec, include_reference_prep: bool = True) -> Circuit:
    """Rotation-ladder preparation circuit for a state specification.

    Entry order is taken as given: the first entry is the reference. With
    include_reference_prep the circuit starts from X gates building the
    reference out of |0...0>; without it the circuit maps |reference> to the
    target, which is the form a ground-state ansatz needs. Each rotation is
    one G2 or G4 gate, the only angle-bearing gates of the circuit.
    """
    plan = plan_rotations(spec.configs)
    gates: list[Gate] = []
    if include_reference_prep:
        gates.extend(x_gate(q) for q in plan.configs[0].occupied)
    for rot, angle in zip(plan.rotations, angles_from_coefficients(spec.coefficients)):
        gates.extend(_rotation_gates(rot, angle))
    return Circuit(spec.n_q, tuple(gates))

