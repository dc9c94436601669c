"""Pauli-word algebra over a symplectic (X-mask, Z-mask) encoding.

A word is stored as two integer bitmasks. Bit position n - 1 - q of a mask
corresponds to qubit q, so masks align with basis-state indices where qubit 0
is the most significant bit. The canonical operator for masks (x, z) is
i**popcount(x & z) * X^x * Z^z, which makes every word Hermitian and maps
popcount(x & z) to the number of Y letters.

A sum is the package's one operator kernel: it groups its words by X-mask
once, and its matrix-free, dense, subspace-block and sparse forms all read
those groups. So do its sectors, the blocks of basis states it never leaves:
the Hamming-weight sectors when it conserves particle number, else one block
over the whole register. Its cached spectrum is solved block by block,
without eigenvectors.
"""
from __future__ import annotations

import dataclasses
import functools
import math

from . import _lazy_numpy

np = _lazy_numpy()

# Eigensolves refuse a block of more rows than this: a complex block of 2**12
# rows holds 256 MiB. Conserving sums fit up to 14 qubits, C(14, 7) = 3432.
MAX_EIGEN_BLOCK_ROWS = 1 << 12

_LETTERS = "IXZY"  # index = (x_bit) + 2 * (z_bit)


@functools.cache
def _letter_matrices() -> dict[str, np.ndarray]:
    return {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }


@dataclasses.dataclass(frozen=True)
class PauliWord:
    """Hermitian tensor product of single-qubit Pauli letters."""

    x_mask: int
    z_mask: int
    n_qubits: int

    def __post_init__(self) -> None:
        if self.n_qubits <= 0:
            raise ValueError("word needs at least one qubit")
        top = 1 << self.n_qubits
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("mask outside register")

    @classmethod
    def from_string(cls, letters: str) -> PauliWord:
        x = z = 0
        for ch in letters:
            x <<= 1
            z <<= 1
            if ch in ("X", "Y"):
                x |= 1
            if ch in ("Z", "Y"):
                z |= 1
            if ch not in "IXYZ":
                raise ValueError(f"invalid Pauli letter {ch!r} in {letters!r}")
        return cls(x, z, len(letters))

    def __str__(self) -> str:
        out = []
        for q in range(self.n_qubits):
            bit = self.n_qubits - 1 - q
            out.append(_LETTERS[((self.x_mask >> bit) & 1) + 2 * ((self.z_mask >> bit) & 1)])
        return "".join(out)

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    def matrix(self) -> np.ndarray:
        """Dense matrix via explicit Kronecker products (oracle-grade path)."""
        out = np.eye(1, dtype=complex)
        letters = _letter_matrices()
        for ch in str(self):
            out = np.kron(out, letters[ch])
        return out


def word_multiply(a: PauliWord, b: PauliWord) -> tuple[complex, PauliWord]:
    """Product of two words as (phase, canonical word), phase in {1, i, -1, -i}."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"register mismatch: {a.n_qubits} vs {b.n_qubits}")
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    y_out = (x & z).bit_count()
    exponent = (a.y_count + b.y_count - y_out + 2 * (a.z_mask & b.x_mask).bit_count()) % 4
    return 1j**exponent, PauliWord(x, z, a.n_qubits)


def _word_phases(word: PauliWord) -> np.ndarray:
    """Column phases of a word: its matrix holds i**y_count * (-1)**popcount(z & c)
    at row c ^ x_mask of column c. The package's one Z-parity loop."""
    indices = np.arange(1 << word.n_qubits)
    parity = np.zeros(indices.size, dtype=np.int64)
    z = word.z_mask
    while z:
        low = z & -z
        parity ^= (indices >> low.bit_length() - 1) & 1
        z ^= low
    return (1j**word.y_count) * np.where(parity, -1.0, 1.0)


def apply_word(word: PauliWord, amps: np.ndarray) -> np.ndarray:
    """Apply a word to a statevector indexed with qubit 0 as the MSB."""
    dim = 1 << word.n_qubits
    if amps.shape[0] != dim:
        raise ValueError(f"state of dim {amps.shape[0]} does not match {word.n_qubits} qubits")
    out = np.empty(dim, dtype=complex)
    out[np.arange(dim) ^ word.x_mask] = _word_phases(word) * amps
    return out


class PauliSum:
    """Real linear combination of Pauli words on a common register."""

    def __init__(self, terms: dict[PauliWord, float], n_qubits: int):
        for word, coeff in terms.items():
            if word.n_qubits != n_qubits:
                raise ValueError("term register size mismatch")
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient {coeff!r} of {word} is not finite")
        self._terms = {w: float(c) for w, c in terms.items() if c != 0.0}
        self.n_qubits = n_qubits

    @classmethod
    def from_terms(cls, pairs, n_qubits: int | None = None) -> PauliSum:
        """Build from (coefficient, word-or-letter-string) pairs, collecting
        duplicates."""
        acc: dict[PauliWord, float] = {}
        width = n_qubits
        for coeff, word in pairs:
            if isinstance(word, str):
                word = PauliWord.from_string(word)
            if width is None:
                width = word.n_qubits
            acc[word] = acc.get(word, 0.0) + float(coeff)
        if width is None:
            raise ValueError("empty sum needs an explicit qubit count")
        return cls(acc, width)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @functools.cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """X-masks and diagonals with H[c ^ masks[g], c] = diagonals[g, c].

        Each diagonal adds its words' coeff * i**y * (-1)**parity in term
        insertion order, so the dense form equals the Kronecker sum of the
        words exactly. Every operator form below reads these groups.
        """
        masks = list(dict.fromkeys(word.x_mask for word in self._terms))
        group_of = {x: g for g, x in enumerate(masks)}
        diagonals = np.zeros((len(masks), 1 << self.n_qubits), dtype=complex)
        for word, coeff in self._terms.items():
            diagonals[group_of[word.x_mask]] += coeff * _word_phases(word)
        if not diagonals.imag.any():
            # Real sums, such as number-conserving ones, keep half the memory.
            diagonals = diagonals.real.copy()
        diagonals.flags.writeable = False
        return np.array(masks, dtype=np.int64), diagonals

    def apply(self, amps: np.ndarray) -> np.ndarray:
        dim = 1 << self.n_qubits
        if amps.shape != (dim,):
            raise ValueError(f"state of shape {amps.shape} does not match {self.n_qubits} qubits")
        indices = np.arange(dim)
        out = np.zeros(dim, dtype=complex)
        for x, diagonal in zip(*self._groups):
            out += (diagonal * amps)[indices ^ x]
        return out

    def block(self, indices: np.ndarray) -> np.ndarray:
        """Dense matrix over distinct basis states: entry (i, j) is
        <indices[i]|H|indices[j]>; real when every diagonal is."""
        masks, diagonals = self._groups
        pos = np.full(1 << self.n_qubits, -1)
        pos[indices] = np.arange(indices.size)
        cols = np.arange(indices.size)
        out = np.zeros((indices.size, indices.size), dtype=diagonals.dtype)
        for x, diagonal in zip(masks, diagonals):
            rows = pos[indices ^ x]
            inside = rows >= 0
            out[rows[inside], cols[inside]] = diagonal[indices[inside]]
        return out

    def matrix(self) -> np.ndarray:
        return self.block(np.arange(1 << self.n_qubits))

    @functools.cached_property
    def _csr(self):
        """CSR matrix whose row r holds column r ^ x of every group x; real
        when every diagonal is.

        Assembled once per sum and shared by every caller, hence read-only.
        """
        import scipy.sparse as sp

        masks, diagonals = self._groups
        dim = 1 << self.n_qubits
        cols = np.arange(dim, dtype=np.int32)[:, None] ^ masks.astype(np.int32)
        data = diagonals[np.arange(masks.size), cols]
        out = sp.csr_matrix(
            (data.ravel(), cols.ravel(), np.arange(dim + 1) * masks.size), shape=(dim, dim)
        )
        out.eliminate_zeros()
        for array in (out.data, out.indices, out.indptr):
            array.flags.writeable = False
        return out

    def sparse_matrix(self):
        """The cached, read-only CSR form of the sum."""
        return self._csr

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, ...]:
        """Ascending basis indices of each block the sum never leaves.

        These are the Hamming-weight sectors, by ascending weight, when every
        nonzero entry links two states of equal weight; otherwise the whole
        register is the one block. Words that cancel exactly, such as the XX
        and YY of a hopping pair, can leave a rounding residue when other
        words of their X-mask come between them, so an entry counts as zero
        within the error bound of summing its group's m words, (m - 1) eps
        times their summed absolute coefficients.
        """
        count: dict[int, int] = {}
        size: dict[int, float] = {}
        for word, coeff in self._terms.items():
            count[word.x_mask] = count.get(word.x_mask, 0) + 1
            size[word.x_mask] = size.get(word.x_mask, 0.0) + abs(coeff)
        indices = np.arange(1 << self.n_qubits)
        weight = sum((indices >> k) & 1 for k in range(self.n_qubits))
        for x, diagonal in zip(*self._groups):
            bound = (count[x] - 1) * np.finfo(float).eps * size[x]
            linked = indices[np.abs(diagonal) > bound]
            if (weight[linked] != weight[linked ^ x]).any():
                return (indices,)
        edges = np.cumsum(np.bincount(weight))[:-1]
        return tuple(np.split(np.argsort(weight, kind="stable"), edges))

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, solved block by block without eigenvectors.

        Computed once per sum and shared by every caller, hence read-only.
        """
        rows = max(map(len, self.sectors))
        if rows > MAX_EIGEN_BLOCK_ROWS:
            raise ValueError(
                f"the {self.n_qubits}-qubit operator's largest block has {rows} rows, "
                f"beyond the eigensolve budget of {MAX_EIGEN_BLOCK_ROWS}"
            )
        values = np.sort(np.concatenate([np.linalg.eigvalsh(self.block(s)) for s in self.sectors]))
        values.flags.writeable = False
        return values
