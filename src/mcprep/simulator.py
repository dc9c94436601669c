"""Exact statevector simulation, spectra and time evolution.

Basis convention: qubit 0 is the most significant bit of the state index, so
the textual configuration "10" maps to index 2. All gate kinds of the IR are
applied natively, including pattern rotations and gates with arbitrary
(qubit, state) controls, so circuits can be verified without compiling them
to a hardware set first.

A gate acts on tensor axes: the amplitudes are viewed as a (2,) * n tensor
(axis q is qubit q) and each control fixes its axis to its state. The general
kernel serves every gate and register size. A per-process cache holds, for
each (register size, targets, controls, batch shape), the control-fixing
index and the axis permutation that puts the targets first, in gate order.
To apply a gate the kernel transposes the control-fixed view by that
permutation, copies it once into a (2**m, -1) block, multiplies the gate's
matrix into the block and writes the product back through the same view.

``run_circuit`` builds the matrices of each angle-bearing kind in one numpy
pass over the circuit's angles, and applies the uncontrolled diagonal and
permutation gates without the general kernel: ``Rz`` and ``ZZMax`` multiply
a view that gives each target its own axis by their diagonal in place, ``X``
and ``CNOT`` exchange slices of it. ``circuit_unitary`` keeps the general
kernel for every gate, so it stays an independent oracle. The energy
gradient of a symbolic circuit reuses the general kernel in one backward
pass (adjoint differentiation) and reads its generator rows from the same
block. Subspace matrices are blocks of the operator sum's own kernel.
"""
from __future__ import annotations

import functools

import numpy as np

from .circuits import CNOT, G2, G4, PHASEDX, RY, RZ, X, ZZMAX, Circuit, Gate, gate_matrix
from .configs import StateSpec
from .paulis import PauliSum

MAX_SIM_QUBITS = 16
MAX_UNITARY_QUBITS = 12
# QCELS diagonalizes the blocks of an operator whose largest block has at most
# 2**this many rows; vqe and qcels reports add the exact ground energy up to
# this many qubits.
MAX_DENSE_EIGEN_QUBITS = 10
MAX_SPECTRUM_QUBITS = 14
MAX_MOMENT_ORDER = 8


def spec_state(spec: StateSpec) -> np.ndarray:
    """The amplitudes of a spec as a complex (2**n,) array."""
    amps = np.zeros(1 << spec.n_q, dtype=complex)
    for coeff, config in spec.entries:
        amps[config.index] = coeff
    return amps


def _zero_state(n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return amps


@functools.cache
def _layout(n: int, targets, controls, batch) -> tuple:
    """How a gate reaches a C-contiguous (dim,) + batch array: the (2,) * n +
    batch tensor shape, the index fixing each control axis to its state, and
    the axis permutation of that indexed view which puts the targets first, in
    gate order, and keeps the other axes in order."""
    fixed = dict(controls)
    index = tuple(fixed.get(q, slice(None)) for q in range(n))
    free = [q for q in range(n) if q not in fixed]
    axis = {q: k for k, q in enumerate(free)}
    perm = [axis[q] for q in targets]
    perm += [axis[q] for q in free if q not in targets]
    perm += range(len(free), len(free) + len(batch))
    return (2,) * n + batch, index, tuple(perm)


def _target_block(amps: np.ndarray, n: int, targets, controls) -> tuple[np.ndarray, np.ndarray]:
    """The control-fixed view of the amplitudes with the target axes first,
    and its (2**m, -1) reshape, a copy unless the view is contiguous, whose
    row r is target pattern r (first target as most significant bit)."""
    shape, index, perm = _layout(n, targets, controls, amps.shape[1:])
    view = amps.reshape(shape)[index].transpose(perm)
    return view, view.reshape(1 << len(targets), -1)


def _apply_matrix(amps: np.ndarray, n: int, u: np.ndarray, targets, controls) -> np.ndarray:
    """Apply a matrix over the target axes, under controls, in place."""
    view, block = _target_block(amps, n, targets, controls)
    view[...] = (u @ block).reshape(view.shape)
    return amps


def _apply_gate(amps: np.ndarray, n: int, g: Gate) -> np.ndarray:
    """Apply one gate in place to a C-contiguous (dim,) or (dim, batch) array."""
    return _apply_matrix(amps, n, gate_matrix(g.kind, g.params), g.targets, g.controls)


@functools.cache
def _split(n: int, targets) -> tuple[int, ...]:
    """A shape that gives each target its own axis of length 2, in qubit
    order, and merges the qubits between them."""
    shape, below = [], 0
    for q in sorted(targets):
        shape += [1 << (q - below), 2]
        below = q + 1
    return (*shape, 1 << (n - below))


def _phase(state: np.ndarray, n: int, targets, u: np.ndarray) -> None:
    # Rz has one target and ZZMax's diagonal is symmetric in its two, so the
    # diagonal lies over the split axes in qubit order.
    view = state.reshape(_split(n, targets))
    view *= u.diagonal().reshape((2, 1) * len(targets))


def _flip_x(state: np.ndarray, n: int, targets, u: np.ndarray) -> None:
    view = state.reshape(_split(n, targets))
    view[...] = view[:, ::-1]


def _flip_cnot(state: np.ndarray, n: int, targets, u: np.ndarray) -> None:
    control, target = targets
    view = state.reshape(_split(n, targets))
    if control < target:
        view = view[:, 1]
        view[...] = view[:, :, ::-1]
    else:
        view = view[:, :, :, 1]
        view[...] = view[:, ::-1]


_DIRECT_KERNELS = {RZ: _phase, ZZMAX: _phase, X: _flip_x, CNOT: _flip_cnot}


def _rotation_stack(angles: np.ndarray, off_diagonal: complex) -> np.ndarray:
    """[[c, w s], [-conj(w) s, c]], with c and s the cosine and sine of half
    of each angle: Ry for w = -1, Rx for w = -1j."""
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    m = np.empty((len(angles), 2, 2), dtype=complex)
    m[:, 0, 0] = m[:, 1, 1] = c
    m[:, 0, 1] = off_diagonal * s
    m[:, 1, 0] = -np.conj(off_diagonal) * s
    return m


def _rz_stack(angles: np.ndarray) -> np.ndarray:
    m = np.zeros((len(angles), 2, 2), dtype=complex)
    m[:, 0, 0] = np.exp(-1j * angles / 2)
    m[:, 1, 1] = np.exp(1j * angles / 2)
    return m


def _pattern_stack(angles: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros((len(angles), size, size), dtype=complex)
    m[:, range(size), range(size)] = 1
    m[:, lo, lo] = m[:, hi, hi] = c
    m[:, lo, hi] = s
    m[:, hi, lo] = -s
    return m


# The matrices of gate_matrix, built the same way, for the (gates, angles)
# array of one kind.
_STACKS = {
    RY: lambda a: _rotation_stack(a[:, 0], -1.0),
    RZ: lambda a: _rz_stack(a[:, 0]),
    PHASEDX: lambda a: _rz_stack(a[:, 1]) @ _rotation_stack(a[:, 0], -1j) @ _rz_stack(-a[:, 1]),
    G2: lambda a: _pattern_stack(a[:, 0], 4, 0b01, 0b10),
    G4: lambda a: _pattern_stack(a[:, 0], 16, 0b0011, 0b1100),
}
# Below this many gates of a kind, gate_matrix per gate is cheaper.
_STACK_MIN = 8


def run_circuit(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply a fully bound circuit to a copy of an input state (default all
    zeros)."""
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"{c.n_qubits} qubits exceeds simulation budget {MAX_SIM_QUBITS}")
    if c.parameters:
        raise ValueError(f"circuit has unbound parameters {c.parameters}")
    n = c.n_qubits
    if initial is None:
        state = _zero_state(n)
    else:
        if initial.shape != (1 << n,):
            raise ValueError("input register size mismatch")
        state = initial.astype(complex)
    angles: dict[str, list] = {}
    for g in c.gates:
        if g.params:
            angles.setdefault(g.kind, []).append(g.params)
    matrices = {
        kind: iter(_STACKS[kind](np.array(p, dtype=float))).__next__
        for kind, p in angles.items() if len(p) >= _STACK_MIN
    }
    for g in c.gates:
        kind = g.kind
        take = matrices.get(kind)
        u = take() if take is not None else gate_matrix(kind, g.params)
        kernel = None if g.controls else _DIRECT_KERNELS.get(kind)
        if kernel is None:
            _apply_matrix(state, n, u, g.targets, g.controls)
        else:
            kernel(state, n, g.targets, u)
    return state


# Each kind that may carry a symbolic angle has dU/dtheta = A U over its
# targets with a generator A that is w at (a, b), -w at (b, a) and zero
# elsewhere; the entries are (a, b, w) with the first target as the most
# significant bit of a pattern.
_GENERATORS = {RY: (0b0, 0b1, -0.5), G2: (0b01, 0b10, 1.0), G4: (0b0011, 0b1100, 1.0)}


def energy_gradient(c: Circuit, angles: np.ndarray, h: PauliSum) -> tuple[float, np.ndarray]:
    """<H> in the state the circuit prepares from |0...0>, with the angles
    taken in the order of ``c.parameters``, and its gradient in that order.

    Adjoint differentiation: a forward pass prepares psi and lambda = H psi;
    a backward pass undoes the gates on both down to the first symbolic one,
    and every symbolic gate adds 2 Re <lambda| P_c A |psi>, where P_c
    projects on its control states and A is its generator.
    """
    names = c.parameters
    if len(angles) != len(names):
        raise ValueError(f"expected {len(names)} angles, got {len(angles)}")
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"{c.n_qubits} qubits exceeds simulation budget {MAX_SIM_QUBITS}")
    position = {name: k for k, name in enumerate(names)}
    n = c.n_qubits
    psi = _zero_state(n)
    steps = []
    for g in c.gates:
        symbols = g.symbols
        if symbols and g.kind not in _GENERATORS:
            raise ValueError(f"no generator for a symbolic {g.kind} gate")
        params = tuple(angles[position[p]] if isinstance(p, str) else float(p) for p in g.params)
        u = gate_matrix(g.kind, params)
        _apply_matrix(psi, n, u, g.targets, g.controls)
        if symbols or steps:
            steps.append((g, u, symbols))
    lam = h.apply(psi)
    energy = complex(np.vdot(psi, lam)).real
    pair = np.stack([psi, lam], axis=1)
    grad = np.zeros(len(names))
    for g, u, symbols in reversed(steps):
        view, block = _target_block(pair, n, g.targets, g.controls)
        if symbols:
            a, b, w = _GENERATORS[g.kind]
            at_a, at_b = block[a].reshape(-1, 2), block[b].reshape(-1, 2)
            term = np.vdot(at_a[:, 1], at_b[:, 0]) - np.vdot(at_b[:, 1], at_a[:, 0])
            grad[position[symbols[0]]] += 2 * w * term.real
        view[...] = (u.conj().T @ block).reshape(view.shape)
    return energy, grad


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full matrix of a circuit, columns = images of basis states."""
    if c.n_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary extraction capped at {MAX_UNITARY_QUBITS} qubits")
    if c.parameters:
        raise ValueError(f"circuit has unbound parameters {c.parameters}")
    mat = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        _apply_gate(mat, c.n_qubits, g)
    return mat


def fidelity_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2, insensitive to global phase, for normalized states."""
    if a.shape != b.shape:
        raise ValueError("state dimension mismatch")
    return float(abs(np.vdot(a, b)) ** 2)


def expectation(state: np.ndarray, h: PauliSum) -> float:
    """<psi|H|psi> for a normalized state; the imaginary residue must be tiny."""
    value = complex(np.vdot(state, h.apply(state)))
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"expectation has imaginary residue {value.imag}")
    return value.real


def moments(state: np.ndarray, h: PauliSum, m_max: int) -> list[float]:
    """<H^m> for m = 1..m_max via repeated application and inner products."""
    if not 1 <= m_max <= MAX_MOMENT_ORDER:
        raise ValueError(f"moment order must be in 1..{MAX_MOMENT_ORDER}, got {m_max}")
    powers = [state]
    for _ in range((m_max + 1) // 2):
        powers.append(h.apply(powers[-1]))
    out = []
    for m in range(1, m_max + 1):
        value = complex(np.vdot(powers[m // 2], powers[m - m // 2]))
        if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
            raise ValueError(f"moment {m} has imaginary residue {value.imag}")
        out.append(value.real)
    return out


def evolve(state: np.ndarray, h: PauliSum, t: float) -> np.ndarray:
    """exp(-i H t) applied to the state by sparse Krylov evolution."""
    n = h.n_qubits
    if state.shape != (1 << n,):
        raise ValueError("state does not match Hamiltonian register")
    if n > MAX_SPECTRUM_QUBITS:
        raise ValueError(f"{n} qubits exceeds evolution budget {MAX_SPECTRUM_QUBITS}")
    from scipy.sparse.linalg import expm_multiply

    return expm_multiply(-1j * t * h.sparse_matrix(), state)


def exact_spectrum(h: PauliSum) -> np.ndarray:
    """Ascending eigenvalues of the operator, read-only."""
    if h.n_qubits > MAX_SPECTRUM_QUBITS:
        raise ValueError(f"{h.n_qubits} qubits exceeds spectrum budget {MAX_SPECTRUM_QUBITS}")
    return h.eigenvalues


def subspace_matrix(h: PauliSum, configs) -> np.ndarray:
    """<x_i|H|x_j> over a list of distinct configurations."""
    indices = np.array([x.index for x in configs], dtype=np.int64)
    if np.unique(indices).size != indices.size:
        raise ValueError("duplicate configurations in subspace basis")
    return h.block(indices)


def subspace_diag(h: PauliSum, configs) -> np.ndarray:
    """Ascending eigenvalues of H restricted to the span of the given
    configurations."""
    mat = subspace_matrix(h, configs)
    if not np.allclose(mat, mat.conj().T, atol=1e-12):
        raise ValueError("subspace matrix is not Hermitian")
    return np.linalg.eigvalsh(mat)
