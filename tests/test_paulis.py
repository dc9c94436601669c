"""Pauli algebra tests against dense Kronecker-product oracles."""
import itertools
import math

import numpy as np
import pytest

from mcprep.paulis import PauliSum, PauliWord, apply_word, word_multiply
from mcprep.simulator import expectation

_DENSE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_matrix(letters: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in letters:
        out = np.kron(out, _DENSE[ch])
    return out


def random_word(rng, n: int) -> PauliWord:
    return PauliWord.from_string("".join(rng.choice(list("IXYZ"), n)))


def random_sum(rng, n: int, terms: int) -> PauliSum:
    pairs = [(float(rng.standard_normal()), random_word(rng, n)) for _ in range(terms)]
    return PauliSum.from_terms(pairs, n)


def test_word_string_round_trip_and_counts():
    for text in ("IXYZ", "Y", "ZZZZZ", "IIXII"):
        w = PauliWord.from_string(text)
        assert str(w) == text
        assert w.y_count == text.count("Y")
    with pytest.raises(ValueError):
        PauliWord.from_string("AX")


def test_word_matrix_matches_kron_exhaustive_two_qubits():
    for a, b in itertools.product("IXYZ", repeat=2):
        assert np.array_equal(PauliWord.from_string(a + b).matrix(), kron_matrix(a + b))


def test_words_are_hermitian_involutions():
    rng = np.random.default_rng(3)
    for _ in range(30):
        w = random_word(rng, int(rng.integers(1, 7)))
        m = w.matrix()
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(m.shape[0]))


def test_apply_word_matches_matrix_columns():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        w = random_word(rng, n)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert np.allclose(apply_word(w, amps), w.matrix() @ amps, atol=1e-12)


def test_word_multiply_matches_dense_product():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a, b = random_word(rng, n), random_word(rng, n)
        phase, out = word_multiply(a, b)
        assert phase in (1, 1j, -1, -1j)
        assert np.allclose(phase * out.matrix(), a.matrix() @ b.matrix(), atol=1e-12)


def test_word_multiply_is_associative_with_phases():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a, b, c = (random_word(rng, n) for _ in range(3))
        p_ab, ab = word_multiply(a, b)
        p_left, left = word_multiply(ab, c)
        p_bc, bc = word_multiply(b, c)
        p_right, right = word_multiply(a, bc)
        assert left == right
        assert p_ab * p_left == p_bc * p_right


def test_sum_collects_terms_and_drops_zeros():
    w = PauliWord.from_string("XZ")
    s = PauliSum.from_terms([(1.5, w), (-1.5, w), (0.25, "IZ")])
    assert s.n_terms == 1
    assert np.array_equal(s.matrix(), 0.25 * PauliWord.from_string("IZ").matrix())
    with pytest.raises(ValueError, match="coefficient nan of ZI is not finite"):
        PauliSum.from_terms([(math.nan, "ZI"), (1.0, "IZ")])


def structured_terms(rng, n: int) -> dict[PauliWord, float]:
    """Distinct words in insertion order: random words, words sharing one
    X-mask, an XX+YY pair with equal coefficients (which cancel on half of
    their diagonal) and a word with a single Y."""
    flip_z = {"I": "Z", "Z": "I", "X": "Y", "Y": "X"}
    base = "".join(rng.choice(list("IXYZ"), n))
    letters = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(int(rng.integers(0, 4)))]
    letters += [base] + [
        "".join(flip_z[ch] if rng.random() < 0.5 else ch for ch in base) for _ in range(3)
    ]
    letters.append("Y" + "".join(rng.choice(list("IXZ"), n - 1)))
    terms = {PauliWord.from_string(text): float(rng.standard_normal()) for text in letters}
    if n >= 2:
        i, j = sorted(rng.choice(n, size=2, replace=False))
        hop = float(rng.standard_normal())
        for letter in "XY":
            word = ["I"] * n
            word[i] = word[j] = letter
            terms.setdefault(PauliWord.from_string("".join(word)), hop)
    return terms


def conserving_sum(rng, n: int) -> PauliSum:
    """Random particle-number-conserving sum: I/Z words, and between random
    pairs of qubits the real hopping XX + YY and the imaginary one XY - YX,
    with random I/Z letters on the other qubits."""
    pairs = [(float(rng.standard_normal()), "".join(rng.choice(list("IZ"), n))) for _ in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.choice(n, size=2, replace=False)
        middle = list(rng.choice(list("IZ"), n))
        a, b = rng.standard_normal(2)
        for coeff, (p, q) in ((a, "XX"), (a, "YY"), (b, "XY"), (-b, "YX")):
            word = middle.copy()
            word[i], word[j] = p, q
            pairs.append((float(coeff), "".join(word)))
    return PauliSum.from_terms(pairs, n)


def test_sum_apply_and_matrix_agree():
    """apply, matrix and sparse_matrix against the Kronecker sum of the words
    in insertion order, which matrix must reproduce exactly."""
    rng = np.random.default_rng(7)
    cases = [structured_terms(rng, int(rng.integers(1, 7))) for _ in range(25)]
    # One-term sums, where apply must also agree with apply_word.
    cases += [{random_word(rng, int(rng.integers(1, 8))): 1.0} for _ in range(40)]
    for terms in cases:
        n = next(iter(terms)).n_qubits
        h = PauliSum(terms, n)
        oracle = np.zeros((1 << n, 1 << n), dtype=complex)
        for word, coeff in terms.items():
            oracle += coeff * word.matrix()
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert np.array_equal(h.matrix(), oracle)
        assert np.allclose(h.apply(amps), oracle @ amps, atol=1e-11)
        assert np.allclose(h.sparse_matrix().toarray(), oracle, atol=1e-12)
        if len(terms) == 1:
            (word,) = terms
            assert np.allclose(apply_word(word, amps), oracle @ amps, atol=1e-12)


def test_x_plus_z_squares_to_twice_identity():
    h = PauliSum.from_terms([(1.0, "X"), (1.0, "Z")])
    amps = np.array([0.6, 0.8j])
    assert np.allclose(h.apply(h.apply(amps)), 2 * amps, atol=1e-15)
    assert np.allclose(h.matrix() @ h.matrix(), 2 * np.eye(2), atol=1e-15)
    values = h.eigenvalues
    assert np.allclose(values, [-np.sqrt(2), np.sqrt(2)], atol=1e-15)
    assert h.eigenvalues is values
    with pytest.raises(ValueError):
        values[0] = 0.0  # shared by every caller, so read-only


def test_sectors_split_only_weight_keeping_sums():
    hopping = PauliSum.from_terms([(0.5, "XXI"), (0.5, "YYI"), (1.0, "IZZ")])
    assert [s.tolist() for s in hopping.sectors] == [[0], [1, 2, 4], [3, 5, 6], [7]]
    assert hopping.block(hopping.sectors[1]).dtype == float
    # Each of these links states of different weight, so the whole register
    # is one block, however small the entry.
    for pairs in ([(0.5, "XXI"), (-0.5, "YYI")], [(1e-300, "XII")], [(1.0, "XYI")]):
        h = PauliSum.from_terms(pairs + [(1.0, "IZZ")])
        assert len(h.sectors) == 1
        assert h.sectors[0].tolist() == list(range(8))
    # 0.1 + 0.2 - 0.1 - 0.2 leaves 2.8e-17 where XX and YY cancel, which must
    # not depend on the order of the words.
    for order in ((0, 1, 2, 3), (0, 2, 1, 3)):
        pairs = [(0.1, "XXI"), (0.1, "YYI"), (0.2, "XXZ"), (0.2, "YYZ")]
        h = PauliSum.from_terms([pairs[k] for k in order])
        assert [s.tolist() for s in h.sectors] == [s.tolist() for s in hopping.sectors]
    complex_hopping = PauliSum.from_terms([(0.5, "XYI"), (-0.5, "YXI"), (1.0, "IZZ")])
    assert len(complex_hopping.sectors) == 4
    block = complex_hopping.block(complex_hopping.sectors[1])
    assert block.dtype == complex and block.imag.any()


def test_block_matches_dense_principal_submatrix():
    rng = np.random.default_rng(39)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        h = random_sum(rng, n, 6)
        size = int(rng.integers(1, min(6, 1 << n) + 1))
        picks = rng.choice(1 << n, size=size, replace=False)
        assert np.array_equal(h.block(picks), h.matrix()[np.ix_(picks, picks)])


def test_eigenvalues_match_dense_eigvalsh():
    rng = np.random.default_rng(14)
    for n in range(1, 11):
        conserving = conserving_sum(rng, n)
        assert len(conserving.sectors) == n + 1
        for h in (conserving, random_sum(rng, n, 2 * n)):
            dense = np.linalg.eigvalsh(h.matrix())
            assert np.abs(h.eigenvalues - dense).max() < 1e-10


def test_sparse_matrix_is_assembled_once_and_read_only():
    terms = structured_terms(np.random.default_rng(13), 6)
    h = PauliSum(terms, 6)
    csr = h.sparse_matrix()
    assert h.sparse_matrix() is csr
    fresh = PauliSum(terms, 6).sparse_matrix()
    assert fresh is not csr and (fresh != csr).nnz == 0
    assert np.array_equal(csr.toarray(), h.matrix())
    for array in (csr.data, csr.indices, csr.indptr):
        with pytest.raises(ValueError):
            array[0] = 0  # shared by every caller, so read-only


def test_expectation_matches_quadratic_form():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        h = random_sum(rng, n, 5)
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        direct = np.vdot(amps, h.matrix() @ amps)
        assert expectation(amps, h) == pytest.approx(direct.real, abs=1e-11)
