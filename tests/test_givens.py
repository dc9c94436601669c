"""Rotation-ladder synthesis tests: planning rules, angles, and exact prep."""
import math

import numpy as np
import pytest

from mcprep.circuits import G2, SWAP, X
from mcprep.configs import OnConfig, StateSpec, validate_spec
from mcprep.givens import (
    AngleUnderflowError,
    PlanError,
    angles_from_coefficients,
    plan_rotations,
    synthesize_gr,
)
from mcprep.simulator import fidelity_up_to_phase, run_circuit, spec_state

from tests.test_simulator import basis_state


def random_equal_weight_spec(rng, n: int, d: int):
    """Random specification: d distinct configurations of one weight, real
    coefficients bounded away from zero. d is capped by the sector size."""
    weight = int(rng.integers(1, n))
    d = min(d, math.comb(n, weight))
    pool: list[str] = []
    while len(pool) < d:
        bits = [0] * n
        for q in rng.choice(n, size=weight, replace=False):
            bits[q] = 1
        text = "".join(map(str, bits))
        if text not in pool:
            pool.append(text)
    coeffs = rng.uniform(0.2, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    coeffs /= np.linalg.norm(coeffs)
    return validate_spec(list(zip(coeffs.tolist(), pool)))


# --- planning rules -------------------------------------------------------------


def test_plan_targets_put_reference_occupied_wires_first():
    plan = plan_rotations(["1100", "0110"])
    assert plan.rotations[0].targets == (0, 2)
    plan4 = plan_rotations(["1100", "0011"])
    assert plan4.rotations[0].targets == (0, 1, 2, 3)


def test_plan_controls_appear_only_for_disturbed_predecessors():
    # Printed four-qubit trace: second rotation needs one control, on qubit 1
    # in state 1; the first and third run uncontrolled.
    spec = validate_spec(
        [(-0.00009, "1100"), (0.70710, "1001"), (0.70712, "0110"), (0.00007, "0011")]
    )
    plan = plan_rotations(spec.configs)
    assert [rot.controls for rot in plan.rotations] == [(), ((1, 1),), ()]
    assert [len(rot.targets) for rot in plan.rotations] == [2, 2, 4]


def test_plan_rejects_malformed_inputs():
    with pytest.raises(PlanError):
        plan_rotations([])
    with pytest.raises(PlanError):
        plan_rotations(["10", "100"])
    with pytest.raises(PlanError):
        plan_rotations(["10", "11"])
    with pytest.raises(PlanError):
        plan_rotations(["10", "10"])


def test_plan_uses_gadget_beyond_four_flips():
    plan = plan_rotations(["111000", "000111"])
    rot = plan.rotations[0]
    assert len(rot.targets) == 2
    # Distance six needs exactly two controlled transpositions before the
    # central rotation.
    assert len(rot.swaps) == 2
    assert all(step.controls for step in rot.swaps)


# --- angle recursion -------------------------------------------------------------


def test_angles_follow_sine_recursion():
    c4 = -0.25045
    angles = angles_from_coefficients((0.96814, 0.0, 0.0, c4))
    assert angles[0] == 0.0 and angles[1] == 0.0
    assert angles[2] == pytest.approx(math.asin(c4))


def test_angles_flip_global_sign_for_negative_leading_coefficient():
    direct = angles_from_coefficients((0.6, -0.8))
    flipped = angles_from_coefficients((-0.6, 0.8))
    assert flipped == pytest.approx(direct)
    assert direct[0] == pytest.approx(math.asin(-0.8 / 1.0))


def test_angles_reconstruct_coefficients():
    rng = np.random.default_rng(51)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        coeffs = rng.uniform(-1.0, 1.0, size=d)
        coeffs /= np.linalg.norm(coeffs)
        angles = angles_from_coefficients(coeffs)
        sign = -1.0 if coeffs[0] < 0 else 1.0
        running = 1.0
        rebuilt = []
        for theta in angles:
            rebuilt.append(running * math.sin(theta))
            running *= math.cos(theta)
        rebuilt = [running] if d == 1 else [running] + rebuilt
        # leading coefficient is the full cosine product, others telescope
        expected = list(sign * coeffs)
        assert rebuilt[0] == pytest.approx(expected[0], abs=1e-12)
        assert rebuilt[1:] == pytest.approx(expected[1:], abs=1e-12)


def test_angles_clamp_boundary_ratios():
    angles = angles_from_coefficients((0.0, 1.0 + 1e-15))
    assert angles[0] == pytest.approx(math.pi / 2)


def test_angle_underflow_raises():
    with pytest.raises(AngleUnderflowError):
        angles_from_coefficients((0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        angles_from_coefficients(())


# --- synthesized circuits ---------------------------------------------------------


def test_single_configuration_is_pure_reference_prep():
    spec = validate_spec([(1.0, "0101")])
    c = synthesize_gr(spec)
    assert all(g.kind == X for g in c.gates)
    out = run_circuit(c)
    assert out[OnConfig.from_string("0101").index] == 1.0


def test_zero_angles_reproduce_reference_exactly():
    # Coefficients (1, 0) synthesize rotations by exactly zero, which must act
    # as a binary-exact identity on the reference state.
    entries = (
        (1.0, OnConfig.from_string("1100")),
        (0.0, OnConfig.from_string("1010")),
    )
    spec = StateSpec(entries, 4)
    out = run_circuit(synthesize_gr(spec))
    assert out[OnConfig.from_string("1100").index] == 1.0 + 0.0j
    assert np.count_nonzero(out) == 1


def test_prepared_state_matches_spec_with_exact_support():
    rng = np.random.default_rng(52)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 9))
        spec = random_equal_weight_spec(rng, n, d)
        out = run_circuit(synthesize_gr(spec))
        target = spec_state(spec)
        assert fidelity_up_to_phase(out, target) >= 1.0 - 1e-9
        allowed = {x.index for x in spec.configs}
        leakage = sum(
            abs(a) ** 2 for i, a in enumerate(out) if i not in allowed
        )
        assert leakage < 1e-10
        weight = spec.weight
        for i, a in enumerate(out):
            if abs(a) > 1e-10:
                assert bin(i).count("1") == weight


def test_distant_configurations_go_through_swap_walk():
    spec = validate_spec(
        [(0.8, "111000"), (0.36, "000111"), (0.48, "101010")]
    )
    plan = plan_rotations(spec.configs)
    assert plan.rotations[0].swaps
    out = run_circuit(synthesize_gr(spec))
    assert fidelity_up_to_phase(out, spec_state(spec)) >= 1.0 - 1e-12
    kinds = {g.kind for g in synthesize_gr(spec).gates}
    assert SWAP in kinds and G2 in kinds


def test_gadget_swaps_restore_bystander_configurations():
    # The third configuration shares no support with the walked pair, so the
    # gadget's transposition controls must keep it untouched.
    rng = np.random.default_rng(53)
    for _ in range(20):
        spec = random_equal_weight_spec(rng, 8, 6)
        if not any(rot.swaps for rot in plan_rotations(spec.configs).rotations):
            continue
        out = run_circuit(synthesize_gr(spec))
        assert fidelity_up_to_phase(out, spec_state(spec)) >= 1.0 - 1e-9


def test_ansatz_form_maps_reference_to_target():
    spec = validate_spec([(0.6, "1100"), (-0.8, "0110")])
    c = synthesize_gr(spec, include_reference_prep=False)
    assert not any(g.kind == X for g in c.gates)
    ref = basis_state(spec.configs[0])
    out = run_circuit(c, ref)
    assert fidelity_up_to_phase(out, spec_state(spec)) >= 1.0 - 1e-12


def test_plan_accepts_strings_and_configs():
    from_strings = plan_rotations(["110", "011"])
    from_configs = plan_rotations([OnConfig.from_string("110"), OnConfig.from_string("011")])
    assert from_strings == from_configs
