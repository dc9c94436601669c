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

``run_circuit`` and the forward pass of ``energy_gradient`` share one loop:
the matrices of each angle-bearing kind come from one numpy pass over the
circuit's angles (``circuits._GATE_MATRICES``, their one definition), and
the uncontrolled diagonal and permutation gates skip the general kernel:
``Rz`` and ``ZZMax`` multiply a view that gives each target its own axis by
their diagonal in place, ``X`` and ``CNOT`` exchange slices of it.
``circuit_unitary`` applies every gate by the general kernel, so it stays an
oracle of the direct kernels: its independence lies in the kernel, not in
the matrices. The gradient's backward pass (adjoint differentiation) undoes
the gates by the general kernel and reads its generator rows from the same
block. Subspace matrices are blocks of the operator sum's own kernel.
"""
from __future__ import annotations

import functools

from . import _lazy_numpy
from .circuits import CNOT, G2, G4, RY, RZ, X, ZZMAX, Circuit, _GATE_MATRICES, gate_matrix
from .configs import StateSpec
from .paulis import PauliSum

np = _lazy_numpy()

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


def _forward(state: np.ndarray, n: int, gates, params) -> list[np.ndarray]:
    """Apply gates with numeric angles params[i] to a state in place and
    return their matrices, built in one numpy pass per angle-bearing kind."""
    angles: dict[str, list] = {}
    for g, p in zip(gates, params):
        if p:
            angles.setdefault(g.kind, []).append(p)
    stacks = {k: iter(_GATE_MATRICES[k](np.array(a, dtype=float))) for k, a in angles.items()}
    matrices = []
    for g, p in zip(gates, params):
        kind = g.kind
        u = next(stacks[kind]) if p else gate_matrix(kind, ())
        matrices.append(u)
        kernel = None if g.controls else _DIRECT_KERNELS.get(kind)
        if kernel is None:
            _apply_matrix(state, n, u, g.targets, g.controls)
        else:
            kernel(state, n, g.targets, u)
    return matrices


def run_circuit(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Apply a circuit to a copy of an input state (default all zeros)."""
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"{c.n_qubits} qubits exceeds simulation budget {MAX_SIM_QUBITS}")
    n = c.n_qubits
    if initial is None:
        state = _zero_state(n)
    else:
        if initial.shape != (1 << n,):
            raise ValueError("input register size mismatch")
        state = initial.astype(complex)
    _forward(state, n, c.gates, [g.params for g in c.gates])
    return state


# Each kind whose angle may be varied has dU/dtheta = A U over its
# targets with a generator A that is w at (a, b), -w at (b, a) and zero
# elsewhere; the entries are (a, b, w) with the first target as the most
# significant bit of a pattern.
_GENERATORS = {RY: (0b0, 0b1, -0.5), G2: (0b01, 0b10, 1.0), G4: (0b0011, 0b1100, 1.0)}


def energy_gradient(c: Circuit, angles: np.ndarray, h: PauliSum) -> tuple[float, np.ndarray]:
    """<H> in the state the circuit prepares from |0...0> with angles[k] in
    place of the angle of its k-th angle-bearing gate, and the gradient over
    those angles. Every angle-bearing gate must be an Ry, G2 or G4.

    Adjoint differentiation: a forward pass prepares psi and lambda = H psi;
    a backward pass undoes the gates on both down to the first angle-bearing
    one, and every angle-bearing gate adds 2 Re <lambda| P_c A |psi>, where
    P_c projects on its control states and A is its generator.
    """
    if c.n_qubits > MAX_SIM_QUBITS:
        raise ValueError(f"{c.n_qubits} qubits exceeds simulation budget {MAX_SIM_QUBITS}")
    rotations = [k for k, g in enumerate(c.gates) if g.params]
    if len(angles) != len(rotations):
        raise ValueError(f"expected {len(rotations)} angles, got {len(angles)}")
    params = [g.params for g in c.gates]
    for k, angle in zip(rotations, angles):
        if c.gates[k].kind not in _GENERATORS:
            raise ValueError(f"no generator for an angle of a {c.gates[k].kind} gate")
        params[k] = (angle,)
    n = c.n_qubits
    psi = _zero_state(n)
    matrices = _forward(psi, n, c.gates, params)
    lam = h.apply(psi)
    energy = complex(np.vdot(psi, lam)).real
    pair = np.stack([psi, lam], axis=1)
    grad = np.zeros(len(rotations))
    k = len(rotations)
    first = rotations[0] if rotations else len(c.gates)
    for g, u in reversed(list(zip(c.gates, matrices))[first:]):
        view, block = _target_block(pair, n, g.targets, g.controls)
        if g.params:
            a, b, w = _GENERATORS[g.kind]
            at_a, at_b = block[a].reshape(-1, 2), block[b].reshape(-1, 2)
            term = np.vdot(at_a[:, 1], at_b[:, 0]) - np.vdot(at_b[:, 1], at_a[:, 0])
            k -= 1
            grad[k] += 2 * w * term.real
        view[...] = (u.conj().T @ block).reshape(view.shape)
    return energy, grad


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full matrix of a circuit, columns = images of basis states."""
    if c.n_qubits > MAX_UNITARY_QUBITS:
        raise ValueError(f"unitary extraction capped at {MAX_UNITARY_QUBITS} qubits")
    mat = np.eye(1 << c.n_qubits, dtype=complex)
    for g in c.gates:
        _apply_matrix(mat, c.n_qubits, gate_matrix(g.kind, g.params), g.targets, g.controls)
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
