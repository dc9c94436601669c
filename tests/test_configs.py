"""Configuration, excitation, and state-spec validation tests.

The fermionic oracle builds dense ladder-operator matrices by Kronecker
products, independent of the bit-twiddling implementation under test.
"""
import itertools
import math

import numpy as np
import pytest

from mcprep.configs import (
    ExcitationOp,
    OnConfig,
    SpecValidationError,
    apply_excitation,
    cisd_excitations,
    generate_cisd_configs,
    hamming,
    hartree_fock_config,
    restricted_hamming,
    validate_spec,
    xor_support,
)

_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def annihilation_matrix(mode: int, n: int) -> np.ndarray:
    """Dense annihilation operator with parity string, qubit 0 as MSB."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        if q < mode:
            factor = _Z
        elif q == mode:
            factor = _LOWER
        else:
            factor = _I2
        out = np.kron(out, factor)
    return out


def excitation_matrix(op: ExcitationOp, n: int) -> np.ndarray:
    out = np.eye(1 << n, dtype=complex)
    for mode in op.annihilate:
        out = annihilation_matrix(mode, n) @ out
    for mode in op.create:
        out = annihilation_matrix(mode, n).conj().T @ out
    return out


def basis_vector(config: OnConfig) -> np.ndarray:
    v = np.zeros(1 << config.n_qubits, dtype=complex)
    v[config.index] = 1.0
    return v


def test_config_string_round_trip_and_index():
    c = OnConfig.from_string("1010")
    assert str(c) == "1010"
    assert c.index == 0b1010
    assert c.weight == 2
    assert c.occupied == (0, 2)
    assert c[0] == 1 and c[1] == 0
    assert str(c.flipped([1, 3])) == "1111"


def test_config_rejects_bad_input():
    with pytest.raises(ValueError):
        OnConfig.from_string("10a0")
    with pytest.raises(ValueError):
        OnConfig.from_string("")
    with pytest.raises(ValueError):
        OnConfig((0, 2, 1))


def test_hamming_metric_against_popcount():
    n = 5
    configs = [OnConfig(tuple((v >> (n - 1 - q)) & 1 for q in range(n))) for v in range(1 << n)]
    for x, y in itertools.product(configs[:12], configs):
        assert hamming(x, y) == (x.index ^ y.index).bit_count()
        assert len(xor_support(x, y)) == hamming(x, y)
        assert restricted_hamming(x, y, range(n)) == hamming(x, y)


def test_hamming_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        a, b, c = (OnConfig(tuple(rng.integers(0, 2, n))) for _ in range(3))
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


def test_excitation_op_validation():
    with pytest.raises(ValueError):
        ExcitationOp((0, 1), (2,))
    with pytest.raises(ValueError):
        ExcitationOp((1, 0), (2, 3))
    with pytest.raises(ValueError):
        ExcitationOp((0,), (0,))
    with pytest.raises(ValueError):
        ExcitationOp((-1,), (2,))
    assert len(ExcitationOp((0, 2), (1, 3)).annihilate) == 2


def test_apply_excitation_matches_dense_ladder_oracle():
    # Every rank-1 and rank-2 excitation on every 4-mode configuration.
    n = 4
    ops = [ExcitationOp((a,), (c,)) for a in range(n) for c in range(n) if a != c]
    ops += [
        ExcitationOp(ann, cre)
        for ann in itertools.combinations(range(n), 2)
        for cre in itertools.combinations(range(n), 2)
        if not set(ann) & set(cre)
    ]
    configs = [OnConfig(tuple(int(ch) for ch in format(v, f"0{n}b"))) for v in range(1 << n)]
    for op in ops:
        dense = excitation_matrix(op, n)
        for x in configs:
            image = dense @ basis_vector(x)
            result = apply_excitation(op, x)
            if result is None:
                assert np.allclose(image, 0.0)
            else:
                out, sign = result
                assert np.allclose(image, sign * basis_vector(out))


def test_apply_excitation_rejects_out_of_range_modes():
    with pytest.raises(ValueError):
        apply_excitation(ExcitationOp((0,), (7,)), OnConfig.from_string("1100"))


def test_hartree_fock_reference():
    assert str(hartree_fock_config(4, 4)) == "11110000"
    assert str(hartree_fock_config(2, 2)) == "1100"
    with pytest.raises(ValueError):
        hartree_fock_config(3, 3)
    with pytest.raises(ValueError):
        hartree_fock_config(2, 6)


def test_cisd_excitations_match_brute_force_spin_filter():
    hf = hartree_fock_config(3, 2)
    occ, virt = hf.occupied, tuple(q for q in range(6) if not hf[q])
    singles = {(a, c) for a in occ for c in virt if a % 2 == c % 2}
    doubles = {
        (ann, cre)
        for ann in itertools.combinations(occ, 2)
        for cre in itertools.combinations(virt, 2)
        if sorted(q % 2 for q in ann) == sorted(q % 2 for q in cre)
    }
    got_singles = {(op.annihilate[0], op.create[0]) for op in cisd_excitations(hf) if len(op.annihilate) == 1}
    got_doubles = {(op.annihilate, op.create) for op in cisd_excitations(hf) if len(op.annihilate) == 2}
    assert got_singles == singles
    assert got_doubles == doubles


def test_generate_cisd_configs_is_reachable_set():
    for n_orb, n_elec in ((2, 2), (3, 2), (3, 4)):
        hf = hartree_fock_config(n_orb, n_elec)
        n = 2 * n_orb
        up = sum(hf[q] for q in range(0, n, 2))
        expected = {
            x
            for v in range(1 << n)
            for x in [OnConfig(tuple((v >> (n - 1 - q)) & 1 for q in range(n)))]
            if x.weight == hf.weight
            and hamming(hf, x) <= 4
            and sum(x[q] for q in range(0, n, 2)) == up
        }
        got = generate_cisd_configs(n_orb, n_elec)
        assert got[0] == hf
        assert set(got) == expected
        assert len(got) == len(set(got))


def test_validate_spec_renormalizes_exactly():
    spec = validate_spec([(0.6, "110"), (0.8000001, "011")])
    assert math.isclose(math.fsum(c * c for c in spec.coefficients), 1.0, abs_tol=1e-15)
    assert [str(x) for x in spec.configs] == ["110", "011"]


def test_validate_spec_keeps_entry_order_and_reorders_on_request():
    spec = validate_spec([(0.1, "0011"), (-0.9, "1100"), (math.sqrt(0.18), "0110")])
    assert [str(x) for x in spec.configs] == ["0011", "1100", "0110"]
    largest = spec.reordered_largest_first()
    assert [str(x) for x in largest.configs] == ["1100", "0110", "0011"]


def test_validate_spec_error_cases():
    with pytest.raises(SpecValidationError):
        validate_spec([])
    with pytest.raises(SpecValidationError):
        validate_spec([(0.7, "10"), (0.7, "101")])
    with pytest.raises(SpecValidationError):
        validate_spec([(0.7, "10"), (0.7, "11")])
    with pytest.raises(SpecValidationError):
        validate_spec([(0.7, "10"), (0.7, "10")])
    with pytest.raises(SpecValidationError):
        validate_spec([(0.7, "10"), (0.3, "01")])  # norm 0.58
    with pytest.raises(SpecValidationError):
        validate_spec([(0.7 + 0.1j, "10"), (0.7, "01")])
    with pytest.raises(SpecValidationError):
        validate_spec([(1e-16, "10")])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SpecValidationError, match=f"coefficient {bad!r} of 1100 is not finite"):
            validate_spec([(bad, "1100"), (1.0, "0110")])


def test_validate_spec_prunes_tiny_coefficients():
    spec = validate_spec([(1.0, "10"), (1e-15, "01")])
    assert spec.size == 1
    assert str(spec.configs[0]) == "10"


def test_validate_spec_accepts_near_unit_norm_and_complex_real_axis():
    spec = validate_spec([(complex(0.97, 0.0), "1100"), (-0.2431, "0011")])
    assert spec.size == 2
    with pytest.raises(SpecValidationError):
        validate_spec([(0.98, "1100")])
