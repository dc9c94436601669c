"""Plain-numpy reference values for the benchmark's checks.

Nothing here imports mcprep. Operators arrive as ``(coefficient, letters)``
pairs and states as ``(coefficient, bitstring)`` pairs, with qubit 0 as the
leftmost letter and the most significant bit of a basis index, so the
references share no code with the program they check.
"""
from __future__ import annotations

import math

import numpy as np


def word_masks(letters: str) -> tuple[int, int, int]:
    """X mask, Z mask and Y count of one Pauli word."""
    x = z = 0
    for ch in letters:
        x, z = x << 1, z << 1
        if ch in "XY":
            x |= 1
        if ch in "ZY":
            z |= 1
    return x, z, letters.count("Y")


def _parity(indices: np.ndarray, mask: int) -> np.ndarray:
    parity = np.zeros(indices.shape, dtype=np.int64)
    while mask:
        low = mask & -mask
        parity ^= (indices >> (low.bit_length() - 1)) & 1
        mask ^= low
    return parity


def apply_operator(terms, n: int, amps: np.ndarray) -> np.ndarray:
    """H|psi> over the full register, one signed permutation per word."""
    indices = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=complex)
    for coeff, letters in terms:
        x, z, ny = word_masks(letters)
        phases = coeff * (1j**ny) * np.where(_parity(indices, z), -1.0, 1.0)
        out[indices ^ x] += phases * amps
    return out


def block(terms, n: int, basis: np.ndarray) -> np.ndarray:
    """Real symmetric matrix of P H P on the span of the given basis indices.

    Entries whose image leaves the basis are dropped, so on a full particle-
    number sector of a number-conserving operator this is the exact block.
    """
    basis = np.asarray(basis, dtype=np.int64)
    position = np.full(1 << n, -1, dtype=np.int64)
    position[basis] = np.arange(basis.size)
    mat = np.zeros((basis.size, basis.size), dtype=complex)
    cols = np.arange(basis.size)
    for coeff, letters in terms:
        x, z, ny = word_masks(letters)
        rows = position[basis ^ x]
        keep = rows >= 0
        values = coeff * (1j**ny) * np.where(_parity(basis, z), -1.0, 1.0)
        np.add.at(mat, (rows[keep], cols[keep]), values[keep])
    if np.abs(mat.imag).max(initial=0.0) > 1e-12:
        raise ValueError("operator block is not real")
    return mat.real


def sector(n: int, weight: int) -> np.ndarray:
    """Basis indices with ``weight`` bits set: one particle-number sector."""
    indices = np.arange(1 << n)
    return indices[sum((indices >> k) & 1 for k in range(n)) == weight]


def full_spectrum(terms, n: int) -> np.ndarray:
    """All eigenvalues of a number-conserving operator, sector by sector."""
    return np.sort(
        np.concatenate([np.linalg.eigvalsh(block(terms, n, sector(n, w))) for w in range(n + 1)])
    )


def restricted_ground(terms, n: int, bitstrings) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H projected onto the span of the bitstrings."""
    basis = np.array([int(s, 2) for s in bitstrings])
    values, vectors = np.linalg.eigh(block(terms, n, basis))
    return float(values[0]), vectors[:, 0]


def state_vector(entries, n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    for coeff, bits in entries:
        amps[int(bits, 2)] = coeff
    return amps / np.linalg.norm(amps)


def moments(terms, n: int, entries) -> list[float]:
    """<H>, <H^2>, <H^3>, <H^4> of a spec state."""
    psi = state_vector(entries, n)
    h1 = apply_operator(terms, n, psi)
    h2 = apply_operator(terms, n, h1)
    return [
        float(np.vdot(psi, h1).real),
        float(np.vdot(h1, h1).real),
        float(np.vdot(h1, h2).real),
        float(np.vdot(h2, h2).real),
    ]


def sceom_reference(terms, n_orbitals: int, n_electrons: int) -> tuple[float, np.ndarray, int]:
    """Reference energy and excitation energies of the probe matrix.

    The probe matrix is D (H_S - E_ref) D, with D a diagonal of fermionic
    signs and H_S the operator on the spin-conserving single and double
    excitations of the closed-shell reference, so its eigenvalues are those
    of H_S shifted by the reference energy whatever the probe order.
    """
    n = 2 * n_orbitals
    ref_index = int("1" * n_electrons + "0" * (n - n_electrons), 2)
    alpha = sum(1 << (n - 1 - q) for q in range(0, n, 2))
    excited = [
        int(b)
        for b in sector(n, n_electrons)
        if bin(int(b) & alpha).count("1") == bin(ref_index & alpha).count("1")
        and bin(int(b) ^ ref_index).count("1") in (2, 4)
    ]
    e_ref = float(block(terms, n, np.array([ref_index]))[0, 0])
    values = np.linalg.eigvalsh(block(terms, n, np.array(excited)))
    return e_ref, values - e_ref, len(excited)


def qcels_reference(terms, n: int, entries, tau: float, samples: int) -> tuple[float, float]:
    """Global peak of the QCELS spectral objective, and the ratio of the
    second-highest local peak to it.

    Z_k = sum_j w_j exp(-i k tau E_j) from the exact eigenpairs of the
    state's particle-number sector; the objective |sum_k Z_k exp(i k tau E)|^2
    is searched on a fine grid over one alias period and the peak is refined
    by bisecting its derivative. The operators carry no identity term, so no
    energy shift applies.
    """
    weight = entries[0][1].count("1")
    basis = sector(n, weight)
    values, vectors = np.linalg.eigh(block(terms, n, basis))
    psi = state_vector(entries, n)[basis].real
    weights = (vectors.T @ psi) ** 2
    k = np.arange(samples)
    z = (weights[None, :] * np.exp(-1j * np.outer(k * tau, values))).sum(axis=1)

    def objective(energy):
        return np.abs(np.exp(1j * np.outer(np.atleast_1d(energy), k * tau)) @ z) ** 2

    def slope(energy):
        phases = np.exp(1j * k * tau * energy)
        g = np.sum(z * phases)
        return 2.0 * float(np.real(np.conj(g) * np.sum(1j * k * tau * z * phases)))

    grid = np.linspace(-math.pi / tau, math.pi / tau, 64 * samples, endpoint=False)
    scores = objective(grid)
    peak = int(np.argmax(scores))
    neighbours = (np.roll(scores, 1) < scores) & (np.roll(scores, -1) <= scores)
    local = np.sort(scores[neighbours])
    runner_up = float(local[-2] / local[-1]) if local.size > 1 else 0.0
    step = grid[1] - grid[0]
    a, b = grid[peak] - step, grid[peak] + step
    bracketed = slope(a) > 0 > slope(b)
    for _ in range(200):
        if b - a < 1e-13:
            break
        if bracketed:
            mid = 0.5 * (a + b)
            a, b = (mid, b) if slope(mid) > 0 else (a, mid)
        else:
            left, right = a + (b - a) / 3, b - (b - a) / 3
            a, b = (left, b) if objective(left)[0] < objective(right)[0] else (a, right)
    return 0.5 * (a + b), runner_up
