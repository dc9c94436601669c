"""Downstream algorithms driven by the preparation circuits: cumulant-based
energy corrections, variational ground-state search, time-series phase
estimation, and an excited-state equation-of-motion solver."""
from __future__ import annotations

import dataclasses
import math

from . import _lazy_numpy
from .circuits import Circuit, compile_circuit, count_resources, gateset_by_name
from .configs import OnConfig, StateSpec, apply_excitation, hamming, validate_spec
from .givens import synthesize_gr
from .paulis import PauliSum
from .simulator import (
    MAX_DENSE_EIGEN_QUBITS,
    MAX_SPECTRUM_QUBITS,
    energy_gradient,
    evolve,
    expectation,
    run_circuit,
)
from .ssp import synthesize_ssp

np = _lazy_numpy()


class DegenerateCumulants(ArithmeticError):
    """Raised when the quartic correction's guard expressions vanish."""


class ZeroThirdCumulant(ArithmeticError):
    """Raised when the quadratic correction would divide by a zero cumulant."""


class TauTooLarge(ValueError):
    """Raised when the sampling step aliases the range of energies that can
    enter a QCELS series; the message names which range was checked."""


NEAR_EIGENSTATE_VARIANCE = 1e-12
DEGENERACY_TOLERANCE = 1e-12
SYMMETRY_TOLERANCE = 1e-6
# The most weight of U|HF> that sceom_m_matrix lets an ansatz U leave outside HF's sector.
SECTOR_TOLERANCE = 1e-9
# QCELS on solved blocks holds a samples x rows complex array per block: 64 MB
# at this cap and the largest such block, 2^10 rows.
MAX_QCELS_SAMPLES = 4096
# qcels_estimate scores a grid of this many energies per sample over one alias
# period, then halves the two grid steps around the peak at most
# _QCELS_BISECTIONS times, until the bracket is below _QCELS_BRACKET_TOL.
_QCELS_GRID_PER_SAMPLE = 10
_QCELS_BISECTIONS = 80
_QCELS_BRACKET_TOL = 1e-14


@dataclasses.dataclass(frozen=True)
class CumulantSet:
    """First four cumulants of the energy distribution of a state."""

    c1: float
    c2: float
    c3: float
    c4: float


def cumulants(moment_values) -> CumulantSet:
    """Cumulants from raw moments <H>, <H^2>, <H^3>, <H^4>.

    Uses the standard recursion expressing each moment through lower
    cumulants with binomial weights.
    """
    mu = [1.0] + [float(m) for m in moment_values]
    if len(mu) < 5:
        raise ValueError(f"need at least four moments, got {len(mu) - 1}")
    c: list[float] = []
    for m in range(1, 5):
        value = mu[m]
        for p in range(m - 1):
            value -= math.comb(m - 1, p) * c[p] * mu[m - 1 - p]
        c.append(value)
    if c[1] < -1e-10:
        raise ValueError(f"negative variance {c[1]} from inconsistent moments")
    return CumulantSet(*c)


def qcm4(c: CumulantSet) -> float:
    """Quartic connected-moments energy estimate.

    Near-eigenstates (variance below 1e-12) short-circuit to the mean. The
    root expression 3 c3^2 - 2 c2 c4 and the denominator c3^2 - c2 c4 must
    both clear DEGENERACY_TOLERANCE, otherwise DegenerateCumulants is raised.
    """
    if c.c2 < NEAR_EIGENSTATE_VARIANCE:
        return c.c1
    discriminant = 3 * c.c3**2 - 2 * c.c2 * c.c4
    denominator = c.c3**2 - c.c2 * c.c4
    if discriminant <= DEGENERACY_TOLERANCE:
        raise DegenerateCumulants(f"root expression {discriminant:.3e} not positive")
    if abs(denominator) <= DEGENERACY_TOLERANCE:
        raise DegenerateCumulants(f"denominator {denominator:.3e} vanishes")
    return c.c1 - (c.c2**2 / denominator) * (math.sqrt(discriminant) - c.c3)


def cmx2(c: CumulantSet) -> float:
    """Quadratic connected-moments energy estimate c1 - c2^2 / c3."""
    if c.c2 < NEAR_EIGENSTATE_VARIANCE:
        return c.c1
    if abs(c.c3) <= DEGENERACY_TOLERANCE:
        raise ZeroThirdCumulant(f"third cumulant {c.c3:.3e} too small")
    return c.c1 - c.c2**2 / c.c3


def synthesize(spec: StateSpec, method: str) -> Circuit:
    """Preparation circuit of a spec by controlled Givens rotations (``gr``)
    or by pairwise merging (``ssp``)."""
    if method == "gr":
        return synthesize_gr(spec)
    if method == "ssp":
        return synthesize_ssp(spec)
    raise ValueError(f"unknown method {method!r}")


# --- variational ground-state search -----------------------------------------

# Strong-Wolfe constants of the line search (Nocedal & Wright, eq. 3.7) and
# the stopping thresholds of the quasi-Newton search. The thresholds sit far
# below the usual defaults, which park the search well above the minimum on
# the ansatz's flat valleys.
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.9
_GRADIENT_TOL = 1e-10
_DECREASE_TOL = 1e-15
_LINE_SEARCH_EVALS = 40
_BRACKET_RTOL = 1e-14


@dataclasses.dataclass(frozen=True)
class _Minimum:
    x: np.ndarray
    f: float
    stop_reason: str


def _interpolate(lo, hi) -> float:
    """Minimizer of the cubic through the values and slopes at both ends of
    a bracket (Nocedal & Wright, eq. 3.59), kept off the ends; the midpoint
    when that cubic has no such minimizer."""
    (a, fa, da), (b, fb, db) = lo, hi
    mid = 0.5 * (a + b)
    d1 = da + db - 3 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0:
        return mid
    d2 = math.copysign(math.sqrt(disc), b - a)
    denominator = db - da + 2 * d2
    if denominator == 0:
        return mid
    t = b - (b - a) * (db + d2 - d1) / denominator
    margin = 0.1 * abs(b - a)
    return t if min(a, b) + margin <= t <= max(a, b) - margin else mid


def _wolfe_step(fun, x: np.ndarray, f0: float, d0: float, p: np.ndarray, alpha: float):
    """A step length along the descent direction ``p`` that meets the strong
    Wolfe conditions, with the value and gradient there (Nocedal & Wright,
    Alg. 3.5 with the zoom of Alg. 3.6). Otherwise the reason it gives up:
    ``decrease`` when the first trial step already cannot lower f by more
    than the decrease stop, ``line search`` when ``_LINE_SEARCH_EVALS``
    evaluations find no step or rounding decides a later bracket. ``d0 < 0``
    is the slope along ``p`` at ``x``; brackets hold (step, value, slope)
    triples."""
    prev = (0.0, f0, d0)
    bracket = None
    for i in range(_LINE_SEARCH_EVALS):
        f, g = fun(x + alpha * p)
        slope = float(g @ p)
        trial = (alpha, f, slope)
        sufficient = f <= f0 + _WOLFE_C1 * alpha * d0
        if sufficient and abs(slope) <= -_WOLFE_C2 * d0:
            return alpha, f, g
        if bracket is None:
            if not sufficient or (i > 0 and f >= prev[1]):
                bracket = (prev, trial)
            elif slope >= 0:
                bracket = (trial, prev)
            else:
                prev, alpha = trial, 2 * alpha
                continue
        else:
            lo, hi = bracket
            if not sufficient or f >= lo[1]:
                bracket = (lo, trial)
            elif slope * (hi[0] - lo[0]) >= 0:
                bracket = (trial, lo)
            else:
                bracket = (trial, hi)
        lo, hi = bracket
        top = max(lo[0], hi[0])
        # Rounding decides the tests once no step in the bracket can lower f
        # by more than the decrease stop, or once its steps differ by rounding.
        # At the first trial that means f has converged, not that the search
        # broke down.
        if -d0 * top <= _DECREASE_TOL * max(abs(f0), 1.0):
            return "decrease" if i == 0 else "line search"
        if abs(hi[0] - lo[0]) <= _BRACKET_RTOL * top:
            return "line search"
        alpha = _interpolate(lo, hi)
    return "line search"


def _bfgs(fun, x: np.ndarray, maxiter: int, callback=None) -> _Minimum:
    """Minimize ``fun``, which returns a value and its gradient, from ``x``
    by dense BFGS (Nocedal & Wright, Alg. 6.1) with a strong-Wolfe line
    search.

    Stops for one reason: ``gradient`` (max |g| <= _GRADIENT_TOL),
    ``decrease`` (the last step lowered f by at most _DECREASE_TOL times the
    largest of 1 and |f| before and after it, or the line search's first
    trial step could not lower it by more than that), ``maxiter`` (that many
    steps taken) or ``line search`` (no strong-Wolfe step found). The inverse
    Hessian starts as the identity and goes back to it whenever a step's
    curvature s.y is not positive. Returns the lowest point evaluated.
    ``callback(x, f, g)`` sees the start and every accepted iterate.
    """
    lowest_x, lowest_f = x, math.inf

    def evaluate(v):
        nonlocal lowest_x, lowest_f
        value, grad = fun(v)
        value = float(value)
        if value < lowest_f:
            lowest_x, lowest_f = v, value
        return value, grad

    f, g = evaluate(x)
    if callback is not None:
        callback(x, f, g)
    identity = np.eye(x.size)
    inverse_hessian, fresh = identity, True
    decrease = math.inf
    steps = 0
    while True:
        reason = (
            "gradient" if np.max(np.abs(g)) <= _GRADIENT_TOL
            else "decrease" if decrease <= _DECREASE_TOL
            else "maxiter" if steps == maxiter
            else None
        )
        if reason:
            break
        p = -inverse_hessian @ g
        slope = float(g @ p)
        if not slope < 0:
            inverse_hessian, fresh = identity, True
            p, slope = -g, -float(g @ g)
        # A steepest-descent trial step is at most of unit length.
        alpha = min(1.0, 1.0 / float(np.linalg.norm(g))) if fresh else 1.0
        found = _wolfe_step(evaluate, x, f, slope, p, alpha)
        if isinstance(found, str):
            reason = found
            break
        alpha, f_new, g_new = found
        s, y = alpha * p, g_new - g
        sy = float(s @ y)
        if sy > 0:
            hy = inverse_hessian @ y
            inverse_hessian = (
                inverse_hessian
                + ((sy + float(y @ hy)) / sy**2) * np.outer(s, s)
                - (np.outer(hy, s) + np.outer(s, hy)) / sy
            )
            fresh = False
        else:
            inverse_hessian, fresh = identity, True
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x + s, f_new, g_new
        steps += 1
        if callback is not None:
            callback(x, f, g)
    return _Minimum(lowest_x, lowest_f, reason)


@dataclasses.dataclass(frozen=True)
class VqeResult:
    energy: float
    parameters: dict[str, float]
    restarts_used: int
    stop_reason: str


def vqe_minimize(
    h: PauliSum,
    spec: StateSpec,
    method: str = "gr",
    restarts: int = 3,
    seed: int = 0,
    maxiter: int = 500,
) -> VqeResult:
    """Minimize <H> over the angles of the preparation circuit's rotations.

    The circuit is the one synthesized for equal weights over the spec's
    configurations: its structure comes from their order (``gr``) or support
    set (``ssp``) alone, and every ``gr`` angle is defined. Rotation k is
    theta_k, counted in gate order for ``gr`` and from the last gate for
    ``ssp``; the optimizer's variables and ``parameters`` follow the string
    order of the names. Runs BFGS on exact adjoint gradients from uniformly
    random starts, the first of which is all-zero angles (the reference) for
    ``gr``; ``restarts`` counts every start and, like ``maxiter``, must be at
    least 1. ``stop_reason`` is the best start's (see ``_bfgs``); a circuit
    without angles is a stationary point, ``gradient``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if maxiter < 1:
        raise ValueError(f"maxiter must be at least 1, got {maxiter}")
    equal = 1 / math.sqrt(spec.size)
    circuit = synthesize(StateSpec(tuple((equal, x) for x in spec.configs), spec.n_q), method)
    m = sum(1 for g in circuit.gates if g.params)
    if not m:
        return VqeResult(expectation(run_circuit(circuit), h), {}, 0, "gradient")
    names = [f"theta_{k + 1 if method == 'gr' else m - k}" for k in range(m)]
    order = sorted(range(m), key=names.__getitem__)  # variable j is rotation order[j]

    def energy(v: np.ndarray) -> tuple[float, np.ndarray]:
        angles = np.empty(m)
        angles[order] = v
        value, grad = energy_gradient(circuit, angles, h)
        return value, grad[order]

    rng = np.random.default_rng(seed)
    starts: list[np.ndarray] = []
    if method == "gr":
        starts.append(np.zeros(m))
    while len(starts) < restarts:
        starts.append(rng.uniform(-math.pi, math.pi, m))

    best: _Minimum | None = None
    for x0 in starts:
        result = _bfgs(energy, x0, maxiter)
        if best is None or result.f < best.f:
            best = result
    parameters = {names[k]: float(v) for k, v in zip(order, best.x)}
    return VqeResult(best.f, parameters, len(starts), best.stop_reason)


# --- time-series phase estimation --------------------------------------------


@dataclasses.dataclass(frozen=True)
class QcelsSeries:
    """Overlap samples Z_n = <psi| exp(-i (H - shift) tau n) |psi>, where
    `shift` is the middle of the range that the step was checked against:
    that of the blocks the state touches when H's blocks are solved, H's
    whole spectral range when the state is evolved. Adding the shift back
    restores the original zero of energy."""

    tau: float
    values: np.ndarray
    shift: float


def _diagonalizable(h: PauliSum) -> bool:
    """Whether QCELS solves the operator's blocks rather than evolving."""
    return max(map(len, h.sectors)) <= 1 << MAX_DENSE_EIGEN_QUBITS


def _spectral_range(h: PauliSum) -> tuple[float, float]:
    """The lowest and the highest eigenvalue of h, by Krylov iteration."""
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    sparse = h.sparse_matrix()
    try:
        high = eigsh(sparse, k=1, which="LA", return_eigenvectors=False)[0]
        low = eigsh(sparse, k=1, which="SA", return_eigenvectors=False)[0]
    except ArpackNoConvergence as err:
        raise ValueError(
            f"spectral range of the {h.n_qubits}-qubit operator did not converge"
        ) from err
    return float(low.real), float(high.real)


def _validate_series_args(tau: float, n_samples: int) -> None:
    """Check the sampling arguments that need no eigensolve."""
    if not 2 <= n_samples <= MAX_QCELS_SAMPLES:
        raise ValueError(f"samples must run from 2 to {MAX_QCELS_SAMPLES}, got {n_samples}")
    if not (math.isfinite(tau) and tau > 0):
        raise ValueError(f"sampling step must be finite and positive, got {tau}")
    bracket = 2 * 2 * math.pi / (_QCELS_GRID_PER_SAMPLE * n_samples * tau)
    if bracket / 2**_QCELS_BISECTIONS >= _QCELS_BRACKET_TOL:
        raise ValueError(
            f"step {tau} with {n_samples} samples is too small: its search bracket of "
            f"{bracket:.3g} cannot shrink below {_QCELS_BRACKET_TOL:g} in "
            f"{_QCELS_BISECTIONS} halvings"
        )


def qcels_series(state: np.ndarray, h: PauliSum, tau: float, n_samples: int) -> QcelsSeries:
    """Sample the autocorrelation of a state under time evolution by
    H - shift, with shift the middle of the range of energies that can enter
    the series. So the search window [shift - pi/tau, shift + pi/tau) of
    qcels_estimate holds every such energy whenever that range is below
    2 pi/tau, which the check demands (TauTooLarge otherwise).

    When H's largest block has at most 2^10 rows, each block the state
    touches is solved once; only their energies carry weight, so the range
    is theirs. Otherwise the state is evolved and the range is H's own; a
    register above evolve's budget is rejected before any eigensolve.
    """
    _validate_series_args(tau, n_samples)
    n = np.arange(n_samples)
    solved = _diagonalizable(h)
    if solved:
        # Each touched block's energies and the state's weight on each of them.
        spectra = []
        for indices in h.sectors:
            amps = state[indices]
            if amps.any():
                values, vectors = np.linalg.eigh(h.block(indices))
                spectra.append((values, np.abs(vectors.conj().T @ amps) ** 2))
        low = float(min((values[0] for values, _ in spectra), default=0.0))
        high = float(max((values[-1] for values, _ in spectra), default=0.0))
        checked = "of the blocks the state touches"
    else:
        # evolve's own check, made before the eigensolves that would precede it.
        if h.n_qubits > MAX_SPECTRUM_QUBITS:
            raise ValueError(f"{h.n_qubits} qubits exceeds evolution budget {MAX_SPECTRUM_QUBITS}")
        low, high = _spectral_range(h)
        checked = "of the whole spectrum"
    if high > low and tau >= 2 * math.pi / (high - low):
        raise TauTooLarge(f"step {tau} aliases the energy range {high - low:.6g} {checked}")
    shift = (low + high) / 2

    if solved:
        z = np.zeros(n_samples, dtype=complex)
        for values, weights in spectra:
            z += (weights[None, :] * np.exp(-1j * np.outer(n * tau, values))).sum(axis=1)
    else:
        z = np.empty(n_samples, dtype=complex)
        current = state
        z[0] = 1.0
        for i in range(1, n_samples):
            current = evolve(current, h, tau)
            z[i] = np.vdot(state, current)
    # Evolving under h rather than h - shift only adds the phase exp(-i shift tau n).
    return QcelsSeries(tau, z * np.exp(1j * shift * tau * n), shift)


def _qcels_slope(series: QcelsSeries, energy: float) -> float:
    """Derivative of the spectral objective in the energy variable."""
    n = np.arange(series.values.size)
    phases = np.exp(1j * n * series.tau * energy)
    g = np.sum(series.values * phases)
    g_prime = np.sum(1j * n * series.tau * series.values * phases)
    return 2.0 * float(np.real(np.conj(g) * g_prime))


def _qcels_grid_scores(series: QcelsSeries) -> np.ndarray:
    """The objective at every energy -pi/tau + 2 pi k / (M tau), k < M = 10N,
    of the search grid. There exp(i n tau E_k) = (-1)^n exp(2 pi i n k / M),
    so the M sums are one inverse FFT of length M."""
    m = _QCELS_GRID_PER_SAMPLE * series.values.size
    alternating = series.values * (-1.0) ** np.arange(series.values.size)
    return np.abs(m * np.fft.ifft(alternating, m)) ** 2


def qcels_estimate(series: QcelsSeries) -> float:
    """Dominant eigenvalue estimate from the peak of the spectral objective.

    Grid search over one alias period brackets the peak; the peak itself is
    then pinned as the zero crossing of the objective's derivative. Bisecting
    the signed derivative sidesteps the flat top the squared modulus has in
    double precision, which would cap a direct maximization near 1e-9.
    Raises ValueError when the derivative does not change sign across the
    two grid steps around the peak, as on a flat objective.
    """
    tau = series.tau
    scores = _qcels_grid_scores(series)
    grid = np.linspace(-math.pi / tau, math.pi / tau, scores.size, endpoint=False)
    peak = int(np.argmax(scores))
    step = grid[1] - grid[0]
    a, b = grid[peak] - step, grid[peak] + step

    if not _qcels_slope(series, a) > 0 > _qcels_slope(series, b):
        raise ValueError(
            f"QCELS objective has no peak near {grid[peak] + series.shift:.6g}: "
            "its slope does not change sign there"
        )
    for _ in range(_QCELS_BISECTIONS):
        mid = 0.5 * (a + b)
        if _qcels_slope(series, mid) > 0:
            a = mid
        else:
            b = mid
        if b - a < _QCELS_BRACKET_TOL:
            break
    return 0.5 * (a + b) + series.shift


# --- equation-of-motion excited states ---------------------------------------


@dataclasses.dataclass(frozen=True)
class MMatrix:
    """Real symmetric excitation-energy matrix with its ground energy."""

    values: np.ndarray
    ground_energy: float


def _excited_configs(hf: OnConfig, excitations) -> tuple[list[OnConfig], list[int]]:
    configs: list[OnConfig] = []
    signs: list[int] = []
    for op in excitations:
        result = apply_excitation(op, hf)
        if result is None:
            raise ValueError(f"excitation {op} is not valid on {hf}")
        configs.append(result[0])
        signs.append(result[1])
    for i, x in enumerate(configs):
        for j in range(i + 1, len(configs)):
            if configs[j] == x:
                raise ValueError(
                    f"excitations {i} and {j} both map {hf} to {x}; basis would collapse"
                )
    return configs, signs


def _pair_spec(configs, signs, i: int, j: int) -> StateSpec:
    """Symmetric superposition of excited configurations i and j."""
    inv_sqrt2 = 1 / math.sqrt(2)
    return validate_spec(
        [(signs[i] * inv_sqrt2, configs[i]), (signs[j] * inv_sqrt2, configs[j])]
    )


def sceom_m_matrix(
    h: PauliSum,
    hf: OnConfig,
    excitations,
    ansatz: Circuit,
    prep_method: str = "gr",
) -> MMatrix:
    """Excitation-energy matrix over single-configuration probes.

    Diagonal entries come from single-configuration inputs to the ansatz;
    off-diagonal real parts from symmetric two-configuration superpositions,
    each with the ground energy subtracted. prep_method chooses how those
    probe states are synthesized. The ansatz U acts on the prepared probes;
    a ValueError names the weight that U|HF> keeps in the reference's
    particle sector when that is below 1 - SECTOR_TOLERANCE.
    """
    excitations = tuple(excitations)
    if not excitations:
        raise ValueError(f"reference {hf} admits no excitation, so the excitation matrix is empty")
    configs, signs = _excited_configs(hf, excitations)

    def ansatz_state(spec: StateSpec) -> np.ndarray:
        return run_circuit(ansatz, run_circuit(synthesize(spec, prep_method)))

    ground = ansatz_state(validate_spec([(1.0, hf)]))
    kept = sum(abs(a) ** 2 for index, a in enumerate(ground) if index.bit_count() == hf.weight)
    if kept < 1 - SECTOR_TOLERANCE:
        raise ValueError(
            f"ansatz U keeps weight {kept:.12g} of U|{hf}> in the reference's {hf.weight}-particle"
            " sector; U must conserve particle number and act on the prepared reference"
        )
    e_ground = expectation(ground, h)

    size = len(configs)
    diag = np.empty(size)
    for i, x in enumerate(configs):
        diag[i] = expectation(ansatz_state(validate_spec([(1.0, x)])), h) - e_ground

    m = np.diag(diag)
    for i in range(size):
        for j in range(i + 1, size):
            pair_energy = expectation(ansatz_state(_pair_spec(configs, signs, i, j)), h) - e_ground
            m[i, j] = m[j, i] = pair_energy - diag[i] / 2 - diag[j] / 2
    return MMatrix(m, e_ground)


def sceom_energies(values: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the excitation matrix."""
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    if np.max(np.abs(values - values.T)) > SYMMETRY_TOLERANCE:
        raise ValueError("excitation matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh((values + values.T) / 2)


@dataclasses.dataclass(frozen=True)
class ElementResources:
    """Compiled two-qubit costs of one two-configuration probe state."""

    i: int
    j: int
    pair_distance: int
    gr_two_qubit: int
    ssp_two_qubit: int


def sceom_element_resources(hf: OnConfig, excitations, gateset_name: str = "zz"):
    """Per-pair preparation costs for both methods, with the Hamming distance
    between the combined configurations."""
    gateset = gateset_by_name(gateset_name)
    configs, signs = _excited_configs(hf, tuple(excitations))
    out = []
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            spec = _pair_spec(configs, signs, i, j)
            gr, ssp = (
                count_resources(compile_circuit(synthesize(spec, method), gateset)).two_qubit_total
                for method in ("gr", "ssp")
            )
            out.append(ElementResources(i, j, hamming(configs[i], configs[j]), gr, ssp))
    return out
