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
    cnot_gate,
    compile_circuit,
    count_resources,
    gateset_by_name,
    ry_gate,
)
from mcprep import ssp
from mcprep.configs import OnConfig, generate_cisd_configs, validate_spec, xor_support
from mcprep.givens import synthesize_gr
from mcprep.simulator import fidelity_up_to_phase, run_circuit, spec_state
from mcprep.ssp import (
    MergeError,
    merge_angle,
    plan_merges,
    select_merge_pair,
    synthesize_ssp,
)
from tests.test_givens import random_equal_weight_spec


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


def _bits(value: int, n: int) -> str:
    return format(value, f"0{n}b")


def test_survivor_holds_zero_on_pivot():
    rng = np.random.default_rng(62)
    for _ in range(40):
        spec = random_equal_weight_spec(rng, int(rng.integers(3, 9)), 5)
        n = spec.n_q
        merged, survivor, _ = select_merge_pair([x.index for x in spec.configs], n)
        pivot = _bits(merged ^ survivor, n).index("1")
        assert _bits(merged, n)[pivot] == "1"
        assert _bits(survivor, n)[pivot] == "0"


def test_pair_selection_prefers_small_differences():
    # 110000/101000 is the only pair two flips apart; the other pairs need
    # four flips, so the close pair must win regardless of lex order.
    support = [0b110000, 0b101000, 0b000011]
    merged, survivor, _ = select_merge_pair(support, 6)
    assert {_bits(merged, 6), _bits(survivor, 6)} == {"110000", "101000"}
    # Ties on (distance, controls) break lexicographically; the survivor then
    # reorients so that it carries 0 on the shared pivot.
    merged, survivor, _ = select_merge_pair([0b1100, 0b1010, 0b0011], 4)
    assert (_bits(merged, 4), _bits(survivor, 4)) == ("1010", "0011")


def test_pair_selection_needs_two_strings():
    with pytest.raises(MergeError):
        select_merge_pair([0b10], 2)


# Reference scorer on OnConfig objects, independent of the planner's
# bitmask columns: image the support through the fold, then cover the
# imaged threats greedily, lowest qubit on ties.


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
) -> tuple[int, tuple[tuple[int, int], ...]]:
    a, b = pair
    diffs = xor_support(a, b)
    pivot, others = diffs[0], tuple(diffs[1:])
    images = {x: _conjugated(x, pivot, others) for x in support}
    threats = [images[x] for x in support if x not in pair]
    return len(diffs), _greedy_controls(images[b], pivot, threats)


def _reference_selection(support, n, ties, every_pair):
    """Reference rule: score pairs by (distance, controls, strings), every
    pair when every_pair is set, else only the pairs at the minimum distance,
    which the key's leading distance already decides. Appends to ties the
    number of pairs at the minimum distance and how many control counts
    they take. Returns (merged, survivor, controls), the strings as ints,
    like select_merge_pair."""
    strings = sorted((OnConfig.from_string(_bits(x, n)) for x in support), key=str)
    pairs = list(itertools.combinations(strings, 2))
    distances = [len(xor_support(a, b)) for a, b in pairs]
    nearest = min(distances)
    keys = []
    for pair, d in zip(pairs, distances):
        if every_pair or d == nearest:
            distance, controls = _pair_cost(pair, strings)
            keys.append((distance, len(controls), str(pair[0]), str(pair[1]), pair, controls))
    best_key = min(keys)
    counts = {key[1] for key in keys if key[0] == nearest}
    ties.append((distances.count(nearest), len(counts)))
    best, controls = best_key[-2:]
    pivot = xor_support(*best)[0]
    merged, survivor = best if best[0][pivot] else (best[1], best[0])
    return merged.index, survivor.index, controls


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
    return _signed_spec(rng, sorted(strings))


def _signed_spec(rng: random.Random, strings):
    """The strings with random normalized coefficients bounded away from zero."""
    coeffs = [rng.choice((-1, 1)) * rng.uniform(0.2, 1.0) for _ in strings]
    norm = math.sqrt(math.fsum(c * c for c in coeffs))
    return validate_spec([(c / norm, s) for c, s in zip(coeffs, strings)])


def test_merge_plan_matches_all_pairs_reference(monkeypatch):
    # The planner scores only the pairs at the minimum distance, on bitmask
    # columns; its plan, controls included, must equal the one built on the
    # OnConfig reference's selection and controls, including steps where
    # several pairs tie on distance and the control count decides.
    # Scoring every pair of a support of K strings costs O(K**4) per plan,
    # so from CISD(5,4) on (K = 55-118) the reference scores the nearest
    # pairs only.
    rng = random.Random(67)
    cases = [(_random_support_spec(rng), True) for _ in range(40)]
    for n_orb, n_elec in ((3, 2), (4, 4), (5, 4), (6, 4), (6, 6)):
        strings = [str(x) for x in generate_cisd_configs(n_orb, n_elec)]
        cases.append((_signed_spec(rng, strings), len(strings) <= 30))
    planned = [plan_merges(spec) for spec, _ in cases]
    ties: list[tuple[int, int]] = []
    for (spec, every_pair), plan in zip(cases, planned):
        monkeypatch.setattr(
            ssp,
            "select_merge_pair",
            lambda s, n: _reference_selection(s, n, ties, every_pair),
        )
        assert plan_merges(spec) == plan
    assert sum(n > 1 for n, _ in ties) > 100
    assert sum(counts > 1 for _, counts in ties) > 10


def replay_merges(spec):
    """The spec's state followed by its state after each forward merge step
    (fold the pair onto the pivot, then rotate the pivot), and the survivor."""
    steps, survivor = plan_merges(spec)
    states = [spec_state(spec)]
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
    assert abs(states[-1][survivor.index] - 1.0) < 1e-12
    rng = np.random.default_rng(67)
    for _ in range(30):
        spec = random_equal_weight_spec(rng, int(rng.integers(2, 8)), int(rng.integers(2, 7)))
        states, survivor = replay_merges(spec)
        assert abs(states[-1][survivor.index] - 1.0) < 1e-12


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
    assert fidelity_up_to_phase(out, spec_state(spec)) >= 1.0 - 1e-12


def test_rotation_count_is_support_size_minus_one():
    rng = np.random.default_rng(63)
    for _ in range(25):
        spec = random_equal_weight_spec(rng, int(rng.integers(2, 9)), int(rng.integers(1, 8)))
        c = synthesize_ssp(spec)
        rotations = [g for g in c.gates if g.kind == RY]
        assert len(rotations) == spec.size - 1
        assert all(g.kind in (RY, CNOT, X) for g in c.gates)


def test_prepared_state_is_exact_and_sector_confined():
    rng = np.random.default_rng(64)
    for _ in range(40):
        spec = random_equal_weight_spec(rng, int(rng.integers(2, 10)), int(rng.integers(1, 9)))
        out = run_circuit(synthesize_ssp(spec))
        assert fidelity_up_to_phase(out, spec_state(spec)) >= 1.0 - 1e-9
        allowed = {x.index for x in spec.configs}
        for i, a in enumerate(out):
            if abs(a) > 1e-10:
                assert i in allowed


def test_output_is_invariant_under_entry_permutation():
    rng = np.random.default_rng(65)
    for _ in range(20):
        spec = random_equal_weight_spec(rng, 6, 5)
        base = run_circuit(synthesize_ssp(spec))
        entries = list(spec.entries)
        for _ in range(3):
            perm = rng.permutation(len(entries))
            shuffled = validate_spec([(c, str(x)) for c, x in (entries[k] for k in perm)])
            out = run_circuit(synthesize_ssp(shuffled))
            assert np.abs(out - base).max() < 1e-12


def test_disentangling_prefixes_telescope_support():
    # Applying the forward merge steps one at a time must shrink the support
    # by exactly one string per step until only the survivor remains.
    spec = validate_spec(
        [(0.5, "110010"), (0.5, "101010"), (0.5, "011100"), (0.5, "000111")]
    )
    states, survivor = replay_merges(spec)
    sizes = [int(np.count_nonzero(np.abs(s) > 1e-12)) for s in states]
    assert sizes == [4, 3, 2, 1]
    # The last step leaves the whole weight on the survivor.
    assert abs(abs(states[-1][survivor.index]) - 1.0) < 1e-12


def test_sparse_method_never_beats_rotation_ladder_backwards():
    rng = np.random.default_rng(66)
    zz = gateset_by_name("zz")
    for _ in range(15):
        spec = random_equal_weight_spec(rng, 8, int(rng.integers(2, 7)))
        ssp_count = count_resources(compile_circuit(synthesize_ssp(spec), zz)).two_qubit_total
        gr_count = count_resources(compile_circuit(synthesize_gr(spec), zz)).two_qubit_total
        assert ssp_count <= gr_count
