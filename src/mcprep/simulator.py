"""Exact statevector simulation, spectra and time evolution.

Basis convention: qubit 0 is the most significant bit of the state index, so
the textual configuration "10" maps to index 2. All gate kinds of the IR are
applied natively, including pattern rotations and gates with arbitrary
(qubit, state) controls, so circuits can be verified without compiling them
to a hardware set first.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .circuits import Circuit, Gate, gate_matrix
from .configs import OnConfig, StateSpec
from .paulis import PauliSum, expectation_of_sum

MAX_SIM_QUBITS = 16
MAX_DENSE_EVOLVE_QUBITS = 10
MAX_SPECTRUM_QUBITS = 14
MAX_MOMENT_ORDER = 8


@dataclasses.dataclass
class StateVector:
    """Normalized complex amplitudes over 2**n_qubits basis states."""

    amps: np.ndarray
    n_qubits: int

    def __post_init__(self) -> None:
        dim = 1 << self.n_qubits
        if self.amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got shape {self.amps.shape}")

    @classmethod
    def zero_state(cls, n_qubits: int) -> StateVector:
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(amps, n_qubits)

    @classmethod
    def basis_state(cls, config: OnConfig) -> StateVector:
        amps = np.zeros(1 << config.n_qubits, dtype=complex)
        amps[config.index] = 1.0
        return cls(amps, config.n_qubits)

    @classmethod
    def from_spec(cls, spec: StateSpec) -> StateVector:
        amps = np.zeros(1 << spec.n_q, dtype=complex)
        for coeff, config in spec.entries:
            amps[config.index] = coeff
        return cls(amps, spec.n_q)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, config: OnConfig) -> complex:
        return complex(self.amps[config.index])

    def copy(self) -> StateVector:
        return StateVector(self.amps.copy(), self.n_qubits)


def _control_masks(g: Gate, n: int) -> tuple[int, int]:
    ones = zeros = 0
    for q, state in g.controls:
        bit = 1 << (n - 1 - q)
        if state:
            ones |= bit
        else:
            zeros |= bit
    return ones, zeros


def _apply_gate(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    """Apply one gate in place to a (dim,) or (dim, batch) amplitude array."""
    u = gate_matrix(g.kind, g.numeric_params())
    m = len(g.targets)
    target_bits = [1 << (n - 1 - q) for q in g.targets]
    t_mask = 0
    for b in target_bits:
        t_mask |= b
    ones, zeros = _control_masks(g, n)

    indices = np.arange(1 << n)
    base = indices[
        ((indices & t_mask) == 0) & ((indices & ones) == ones) & ((indices & zeros) == 0)
    ]
    if base.size == 0:
        return amps
    offsets = []
    for pattern in range(1 << m):
        off = 0
        for j in range(m):
            if (pattern >> (m - 1 - j)) & 1:
                off |= target_bits[j]
        offsets.append(off)
    cols = np.stack([base + off for off in offsets])
    block = amps[cols]
    amps[cols] = np.tensordot(u, block, axes=(1, 0))
    return amps


def run_circuit(c: Circuit, initial: StateVector | None = None) -> StateVector:
    """Apply a fully bound circuit to an input state (default all zeros)."""
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"{c.n_qubits} qubits exceeds simulation budget {MAX_SIM_QUBITS}")
    if c.parameters:
        raise ValueError(f"circuit has unbound parameters {c.parameters}")
    if initial is None:
        state = StateVector.zero_state(c.n_qubits)
    else:
        if initial.n_qubits != c.n_qubits:
            raise ValueError("input register size mismatch")
        state = initial.copy()
    for g in c.gates:
        _apply_gate(state.amps, c.n_qubits, g)
    return state


def circuit_unitary(c: Circuit, max_qubits: int = 12) -> np.ndarray:
    """Full matrix of a circuit, columns = images of basis states."""
    if c.n_qubits > max_qubits:
        raise ValueError(f"unitary extraction capped at {max_qubits} qubits")
    if c.parameters:
        raise ValueError(f"circuit has unbound parameters {c.parameters}")
    mat = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        _apply_gate(mat, c.n_qubits, g)
    return mat


def _as_amps(state) -> np.ndarray:
    return state.amps if isinstance(state, StateVector) else np.asarray(state, dtype=complex)


def fidelity_up_to_phase(a, b) -> float:
    """|<a|b>|^2, insensitive to global phase, for normalized states."""
    va, vb = _as_amps(a), _as_amps(b)
    if va.shape != vb.shape:
        raise ValueError("state dimension mismatch")
    return float(abs(np.vdot(va, vb)) ** 2)


def expectation(state, h: PauliSum) -> float:
    return expectation_of_sum(h, _as_amps(state))


def moments(state, h: PauliSum, m_max: int) -> list[float]:
    """<H^m> for m = 1..m_max via repeated application and inner products."""
    if not 1 <= m_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 1..{MAX_MOMENT_ORDER}, got {m_max}")
    amps = _as_amps(state)
    powers = [amps]
    for _ in range((m_max + 1) // 2):
        powers.append(h.apply(powers[-1]))
    out = []
    for m in range(1, m_max + 1):
        value = complex(np.vdot(powers[m // 2], powers[m - m // 2]))
        if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
            raise ValueError(f"moment {m} has imaginary residue {value.imag}")
        out.append(value.real)
    return out


def evolve(state, h: PauliSum, t: float) -> StateVector:
    """exp(-i H t) applied to the state; dense below MAX_DENSE_EVOLVE_QUBITS,
    sparse Krylov beyond."""
    n = h.n_qubits
    amps = _as_amps(state)
    if amps.shape != (1 << n,):
        raise ValueError("state does not match Hamiltonian register")
    if n <= MAX_DENSE_EVOLVE_QUBITS:
        values, vectors = h.eigensystem
        phases = np.exp(-1j * values * t)
        out = vectors @ (phases * (vectors.conj().T @ amps))
    elif n <= MAX_SPECTRUM_QUBITS:
        from scipy.sparse.linalg import expm_multiply

        out = expm_multiply(-1j * t * h.sparse_matrix(), amps)
    else:
        raise ValueError(f"{n} qubits exceeds evolution budget {MAX_SPECTRUM_QUBITS}")
    return StateVector(out, n)


@dataclasses.dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with optional eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray | None = None


def exact_spectrum(h: PauliSum, with_vectors: bool = False) -> Spectrum:
    if h.n_qubits > MAX_SPECTRUM_QUBITS:
        raise ValueError(f"{h.n_qubits} qubits exceeds spectrum budget {MAX_SPECTRUM_QUBITS}")
    values, vectors = h.eigensystem
    return Spectrum(values, vectors if with_vectors else None)


def subspace_matrix(h: PauliSum, configs) -> np.ndarray:
    """<x_i|H|x_j> over a configuration list, assembled word by word."""
    index_of = {x.index: i for i, x in enumerate(configs)}
    if len(index_of) != len(configs):
        raise ValueError("duplicate configurations in subspace basis")
    size = len(configs)
    mat = np.zeros((size, size), dtype=complex)
    for coeff, word in h.terms():
        phase_y = 1j**word.y_count
        for j, x in enumerate(configs):
            col = x.index
            row = col ^ word.x_mask
            i = index_of.get(row)
            if i is None:
                continue
            sign = -1.0 if (word.z_mask & col).bit_count() % 2 else 1.0
            mat[i, j] += coeff * phase_y * sign
    return mat


def subspace_diag(h: PauliSum, configs, with_vectors: bool = False) -> Spectrum:
    """Eigenvalues of H restricted to the span of the given configurations."""
    mat = subspace_matrix(h, configs)
    if not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise ValueError("subspace matrix is not Hermitian")
    if with_vectors:
        values, vectors = np.linalg.eigh(mat)
        return Spectrum(values, vectors)
    return Spectrum(np.linalg.eigvalsh(mat))
