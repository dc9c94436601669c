"""Sparse-preparation tests: merge planning, angles, and order invariance."""
import itertools
import math
import random

import numpy as np
import pytest

from mcprep.circuits import (
    CNOT,
    RY,
    X,
    Circuit,
    bind_parameters,
    cnot_gate,
    compile_circuit,
    count_resources,
    gateset_by_name,
    ry_gate,
)
from mcprep import ssp
from mcprep.configs import OnConfig, validate_spec, xor_support
from mcprep.givens import synthesize_gr
from mcprep.simulator import StateVector, fidelity_up_to_phase, run_circuit
from mcprep.ssp import (
    MergeError,
    _pair_cost,
    merge_angle,
    plan_merges,
    select_merge_pair,
    synthesize_ssp,
)
from tests.test_givens import angles_read_off, random_equal_weight_spec


# --- merge angles ----------------------------------------------------------------


def test_merge_angle_examples():
    assert merge_angle(1 / math.sqrt(2), 1 / math.sqrt(2)) == pytest.approx(math.pi / 4)
    assert merge_angle(0.7, 0.0) == 0.0
    assert merge_angle(0.96814, -0.25045) == pytest.approx(-0.25315, abs=1e-4)
    assert merge_angle(-1.0, 0.0) == pytest.approx(math.pi)
    with pytest.raises(MergeError):
        merge_angle(0.0, 0.0)


def test_merge_angle_recovers_both_coefficients():
    rng = np.random.default_rng(61)
    for _ in range(100):
        c1, c2 = rng.uniform(-1, 1, size=2)
        if c1 == 0.0 and c2 == 0.0:
            continue
        theta = merge_angle(c1, c2)
        h = math.hypot(c1, c2)
        assert h * math.cos(theta) == pytest.approx(c1, abs=1e-12)
        assert h * math.sin(theta) == pytest.approx(c2, abs=1e-12)


# --- pair selection ----------------------------------------------------------------


def test_survivor_holds_zero_on_pivot():
    rng = np.random.default_rng(62)
    for _ in range(40):
        spec = random_equal_weight_spec(rng, int(rng.integers(3, 9)), 5)
        merged, survivor = select_merge_pair(list(spec.configs))
        from mcprep.configs import xor_support

        pivot = xor_support(merged, survivor)[0]
        assert merged[pivot] == 1
        assert survivor[pivot] == 0


def test_pair_selection_prefers_small_differences():
    # 110000/101000 is the only pair two flips apart; the other pairs need
    # four flips, so the close pair must win regardless of lex order.
    support = [
        OnConfig.from_string("110000"),
        OnConfig.from_string("101000"),
        OnConfig.from_string("000011"),
    ]
    merged, survivor = select_merge_pair(support)
    assert {str(merged), str(survivor)} == {"110000", "101000"}
    # Ties on (distance, controls) break lexicographically; the survivor then
    # reorients so that it carries 0 on the shared pivot.
    tied = [OnConfig.from_string(s) for s in ("1100", "1010", "0011")]
    merged, survivor = select_merge_pair(tied)
    assert (str(merged), str(survivor)) == ("1010", "0011")


def test_pair_selection_needs_two_strings():
    with pytest.raises(MergeError):
        select_merge_pair([OnConfig.from_string("10")])


def _all_pairs_selection(support, ties):
    """Reference rule: score every pair by (distance, controls, strings).
    Appends to ties the number of pairs at the minimum distance and how many
    control counts they take."""
    strings = sorted(support, key=str)
    keys = [
        (*_pair_cost(pair, strings), str(pair[0]), str(pair[1]), pair)
        for pair in itertools.combinations(strings, 2)
    ]
    best_key = min(keys)
    nearest = {key[1] for key in keys if key[0] == best_key[0]}
    ties.append((sum(key[0] == best_key[0] for key in keys), len(nearest)))
    best = best_key[-1]
    pivot = xor_support(*best)[0]
    return best if best[0][pivot] else (best[1], best[0])


def _random_support_spec(rng: random.Random):
    """Distinct strings of one Hamming weight on 6-10 qubits, K = 3-30 (capped
    by the sector size), with normalized coefficients bounded away from zero."""
    n = rng.randint(6, 10)
    weight = rng.randint(1, n - 1)
    k = min(rng.randint(3, 30), math.comb(n, weight))
    strings: set[str] = set()
    while len(strings) < k:
        ones = set(rng.sample(range(n), weight))
        strings.add("".join("1" if q in ones else "0" for q in range(n)))
    coeffs = [rng.choice((-1, 1)) * rng.uniform(0.2, 1.0) for _ in strings]
    norm = math.sqrt(math.fsum(c * c for c in coeffs))
    return validate_spec([(c / norm, s) for c, s in zip(coeffs, sorted(strings))])


def test_merge_plan_matches_all_pairs_reference(monkeypatch):
    # Only pairs at the minimum distance are scored; the plan must equal the
    # one from scoring every pair, including steps where several pairs tie
    # on distance and the control count decides.
    rng = random.Random(67)
    specs = [_random_support_spec(rng) for _ in range(40)]
    pruned = [plan_merges(spec) for spec in specs]
    ties: list[tuple[int, int]] = []
    monkeypatch.setattr(ssp, "select_merge_pair", lambda s: _all_pairs_selection(s, ties))
    assert pruned == [plan_merges(spec) for spec in specs]
    assert sum(n > 1 for n, _ in ties) > 100
    assert sum(counts > 1 for _, counts in ties) > 10


def replay_merges(spec):
    """The spec's state followed by its state after each forward merge step
    (fold the pair onto the pivot, then rotate the pivot), and the survivor."""
    steps, survivor = plan_merges(spec)
    states = [StateVector.from_spec(spec)]
    for step in steps:
        gates = [cnot_gate(step.pivot, q) for q in step.conjugations]
        gates.append(ry_gate(step.pivot, step.pivot_rotation, step.controls))
        states.append(run_circuit(Circuit(spec.n_q, tuple(gates)), states[-1]))
    return states, survivor


def test_merge_plan_accumulates_positive_survivor_weight():
    # Every merge keeps the positive root, so the survivor ends at +1, not -1.
    spec = validate_spec([(0.5, "1100"), (-0.5, "1010"), (0.5, "0110"), (-0.5, "0011")])
    states, survivor = replay_merges(spec)
    assert len(states) == 4
    assert survivor in spec.configs
    assert abs(states[-1].amps[survivor.index] - 1.0) < 1e-12
    rng = np.random.default_rng(67)
    for _ in range(30):
        spec = random_equal_weight_spec(rng, int(rng.integers(2, 8)), int(rng.integers(2, 7)))
        states, survivor = replay_merges(spec)
        assert abs(states[-1].amps[survivor.index] - 1.0) < 1e-12


# --- circuit structure ----------------------------------------------------------------


def test_two_string_difference_folds_onto_single_pivot():
    # Equal-weight pair four flips apart: one pivot, three fold CNOTs, one
    # uncontrolled rotation; nothing else to protect.
    spec = validate_spec(
        [(1 / math.sqrt(2), "10110100"), (-1 / math.sqrt(2), "01111000")]
    )
    steps, _ = plan_merges(spec)
    assert len(steps) == 1
    step = steps[0]
    assert step.pivot == 0
    assert step.conjugations == (1, 4, 5)
    assert step.controls == ()
    native = synthesize_ssp(spec)
    counts = count_resources(native)
    assert counts.counts.get(CNOT, 0) == 3
    assert counts.two_qubit_total == 3
    compiled = compile_circuit(native, gateset_by_name("zz"))
    assert abs(count_resources(compiled).two_qubit_total - 3) <= 1
    out = run_circuit(native)
    assert fidelity_up_to_phase(out, StateVector.from_spec(spec)) >= 1.0 - 1e-12


def test_rotation_count_is_support_size_minus_one():
    rng = np.random.default_rng(63)
    for _ in range(25):
        spec = random_equal_weight_spec(rng, int(rng.integers(2, 9)), int(rng.integers(1, 8)))
        c = synthesize_ssp(spec)
        rotations = [g for g in c.gates if g.kind == RY]
        assert len(rotations) == spec.size - 1
        assert all(g.kind in (RY, CNOT, X) for g in c.gates)


def test_symbolic_rotations_bind_to_natural_values():
    spec = validate_spec([(0.8, "1100"), (0.36, "1010"), (0.48, "0011")])
    symbolic = synthesize_ssp(spec, symbolic=True)
    assert symbolic.parameters == ("theta_1", "theta_2")
    numeric = synthesize_ssp(spec)
    assert bind_parameters(symbolic, angles_read_off(symbolic, numeric)) == numeric


def test_prepared_state_is_exact_and_sector_confined():
    rng = np.random.default_rng(64)
    for _ in range(40):
        spec = random_equal_weight_spec(rng, int(rng.integers(2, 10)), int(rng.integers(1, 9)))
        out = run_circuit(synthesize_ssp(spec))
        assert fidelity_up_to_phase(out, StateVector.from_spec(spec)) >= 1.0 - 1e-9
        allowed = {x.index for x in spec.configs}
        for i, a in enumerate(out.amps):
            if abs(a) > 1e-10:
                assert i in allowed


def test_output_is_invariant_under_entry_permutation():
    rng = np.random.default_rng(65)
    for _ in range(20):
        spec = random_equal_weight_spec(rng, 6, 5)
        base = run_circuit(synthesize_ssp(spec)).amps
        entries = list(spec.entries)
        for _ in range(3):
            perm = rng.permutation(len(entries))
            shuffled = validate_spec([(c, str(x)) for c, x in (entries[k] for k in perm)])
            out = run_circuit(synthesize_ssp(shuffled)).amps
            assert np.abs(out - base).max() < 1e-12


def test_disentangling_prefixes_telescope_support():
    # Applying the forward merge steps one at a time must shrink the support
    # by exactly one string per step until only the survivor remains.
    spec = validate_spec(
        [(0.5, "110010"), (0.5, "101010"), (0.5, "011100"), (0.5, "000111")]
    )
    states, survivor = replay_merges(spec)
    sizes = [int(np.count_nonzero(np.abs(s.amps) > 1e-12)) for s in states]
    assert sizes == [4, 3, 2, 1]
    # The last step leaves the whole weight on the survivor.
    assert abs(abs(states[-1].amps[survivor.index]) - 1.0) < 1e-12


def test_sparse_method_never_beats_rotation_ladder_backwards():
    rng = np.random.default_rng(66)
    zz = gateset_by_name("zz")
    for _ in range(15):
        spec = random_equal_weight_spec(rng, 8, int(rng.integers(2, 7)))
        ssp_count = count_resources(compile_circuit(synthesize_ssp(spec), zz)).two_qubit_total
        gr_count = count_resources(compile_circuit(synthesize_gr(spec), zz)).two_qubit_total
        assert ssp_count <= gr_count
