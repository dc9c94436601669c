"""Downstream algorithm tests: cumulant energies, VQE, phase series, and
excited-state matrices, each checked against dense linear-algebra oracles."""
import itertools
import math

import numpy as np
import pytest

from mcprep import algorithms
from mcprep.algorithms import (
    CumulantSet,
    QcelsSeries,
    DegenerateCumulants,
    TauTooLarge,
    ZeroThirdCumulant,
    _bfgs,
    _qcels_grid_scores,
    cmx2,
    cumulants,
    qcels_estimate,
    qcels_series,
    qcm4,
    sceom_element_resources,
    sceom_energies,
    sceom_m_matrix,
    synthesize,
    vqe_minimize,
)
from mcprep.configs import (
    ExcitationOp,
    OnConfig,
    apply_excitation,
    cisd_excitations,
    generate_cisd_configs,
    hamming,
    validate_spec,
)
from mcprep.givens import AngleUnderflowError, synthesize_gr
from mcprep.paulis import PauliSum, PauliWord, apply_word
from mcprep.simulator import (
    MAX_DENSE_EIGEN_QUBITS,
    energy_gradient,
    evolve,
    exact_spectrum,
    expectation,
    moments,
    run_circuit,
    subspace_diag,
)

from tests.test_paulis import conserving_sum
from tests.test_simulator import basis_state, random_state, with_angles


def random_terms(rng, n: int, terms: int) -> list[tuple[float, PauliWord]]:
    return [
        (
            float(rng.standard_normal()),
            PauliWord.from_string("".join(rng.choice(list("IXYZ"), n))),
        )
        for _ in range(terms)
    ]


def random_sum(rng, n: int, terms: int) -> PauliSum:
    return PauliSum.from_terms(random_terms(rng, n, terms), n)


def number_conserving_terms(rng, n: int) -> list[tuple[float, str]]:
    """Distinct words of a random weight-sector-preserving Hamiltonian: Z
    words plus symmetric hopping pairs with equal XX and YY coefficients."""
    pairs = []
    for i in range(n):
        pairs.append((float(rng.standard_normal()), "I" * i + "Z" + "I" * (n - i - 1)))
    for i in range(n):
        for j in range(i + 1, n):
            word = ["I"] * n
            word[i] = word[j] = "Z"
            pairs.append((float(rng.standard_normal()), "".join(word)))
            amp = float(rng.standard_normal()) / 2
            for letter in "XY":
                hop = ["I"] * n
                hop[i] = hop[j] = letter
                pairs.append((amp, "".join(hop)))
    return pairs


def number_conserving_hamiltonian(rng, n: int) -> PauliSum:
    return PauliSum.from_terms(number_conserving_terms(rng, n), n)


TWO_ORBITAL_SECTOR = ("1100", "0110", "1001", "0011")


def spin_conserving_hamiltonian(rng) -> PauliSum:
    """Four-qubit Hamiltonian (spins interleaved) preserving particle number
    and spin projection, so the two-electron singlet sector is closed."""
    pairs = []
    for i in range(4):
        pairs.append((float(rng.standard_normal()), "I" * i + "Z" + "I" * (4 - i - 1)))
    for i in range(4):
        for j in range(i + 1, 4):
            word = ["I"] * 4
            word[i] = word[j] = "Z"
            pairs.append((float(rng.standard_normal()), "".join(word)))
    for i, j in ((0, 2), (1, 3)):  # same-spin hopping only
        amp = float(rng.standard_normal()) / 2
        for letter in "XY":
            hop = ["I"] * 4
            hop[i] = hop[j] = letter
            pairs.append((amp, "".join(hop)))
    return PauliSum.from_terms(pairs, 4)


# --- cumulants and moment energies -------------------------------------------------


def test_worked_two_point_example():
    c = cumulants([0.8, 1.0, 0.8, 1.0])
    assert (c.c1, c.c2, c.c3, c.c4) == pytest.approx((0.8, 0.36, -0.576, 0.6624), abs=1e-14)
    assert qcm4(c) == pytest.approx(-1.0, abs=1e-12)
    assert cmx2(c) == pytest.approx(1.025, abs=1e-12)


def test_cumulants_input_validation():
    with pytest.raises(ValueError):
        cumulants([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cumulants([0.0, -1.0, 0.0, 1.0])  # negative variance


def test_eigenstate_cumulants_vanish_and_short_circuit():
    rng = np.random.default_rng(71)
    h = random_sum(rng, 4, 8)
    values, vectors = np.linalg.eigh(h.matrix())
    k = int(rng.integers(0, 16))
    state = vectors[:, k]
    c = cumulants(moments(state, h, 4))
    assert abs(c.c1 - values[k]) < 1e-9
    assert abs(c.c2) < 1e-9 and abs(c.c3) < 1e-9 and abs(c.c4) < 1e-9
    near = CumulantSet(c.c1, max(c.c2, 0.0), c.c3, c.c4)
    assert qcm4(near) == near.c1
    assert cmx2(near) == near.c1


def test_qcm4_recovers_lower_energy_of_two_point_support():
    rng = np.random.default_rng(72)
    done = 0
    while done < 30:
        n = int(rng.integers(2, 6))
        h = random_sum(rng, n, 6)
        values, vectors = np.linalg.eigh(h.matrix())
        i, j = sorted(rng.choice(1 << n, size=2, replace=False))
        if values[j] - values[i] < 0.1:
            continue
        p = float(rng.uniform(0.15, 0.85))
        state = math.sqrt(p) * vectors[:, i] + math.sqrt(1 - p) * vectors[:, j]
        c = cumulants(moments(state, h, 4))
        assert qcm4(c) == pytest.approx(values[i], abs=1e-9)
        done += 1


def test_degenerate_cumulant_guards():
    # Symmetric heavy-tailed three-point distribution: zero skew, positive
    # excess kurtosis, so the root expression goes negative.
    heavy = CumulantSet(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DegenerateCumulants):
        qcm4(heavy)
    with pytest.raises(ZeroThirdCumulant):
        cmx2(heavy)
    flat = CumulantSet(0.0, 1.0, 1.0, 1.0)  # c3^2 == c2 c4 kills the denominator
    assert 3 * flat.c3**2 - 2 * flat.c2 * flat.c4 > 0
    with pytest.raises(DegenerateCumulants):
        qcm4(flat)


def test_degenerate_guard_from_real_moments():
    # Eigenvalues {-2, 0, 2} with weights {1/8, 3/4, 1/8} on one qubit padded
    # into a diagonal Hamiltonian give c3 = 0, c4 = 1.
    values = np.array([-2.0, 0.0, 0.0, 2.0])
    weights = np.array([0.125, 0.375, 0.375, 0.125])
    mu = [float((weights * values**m).sum()) for m in range(1, 5)]
    c = cumulants(mu)
    assert c.c3 == pytest.approx(0.0, abs=1e-14)
    assert c.c4 == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DegenerateCumulants):
        qcm4(c)


# --- variational minimization --------------------------------------------------------


def test_vqe_reaches_subspace_ground_energy_both_methods():
    rng = np.random.default_rng(73)
    # The 6-qubit CISD(3,2) support (K = 9) makes both ansatze controlled.
    cisd = [str(x) for x in generate_cisd_configs(3, 2)]
    for support, restarts in [(TWO_ORBITAL_SECTOR, 3)] * 5 + [(cisd, 1)]:
        configs = [OnConfig.from_string(s) for s in support]
        spec = validate_spec([(1 / math.sqrt(len(support)), s) for s in support])
        h = number_conserving_hamiltonian(rng, len(support[0]))
        exact = subspace_diag(h, configs)[0]
        gr = vqe_minimize(h, spec, method="gr", restarts=restarts, seed=7)
        ssp = vqe_minimize(h, spec, method="ssp", restarts=restarts, seed=7)
        assert gr.energy == pytest.approx(exact, abs=1e-6)
        assert ssp.energy == pytest.approx(exact, abs=1e-6)
        assert abs(gr.energy - ssp.energy) < 1e-6
        # gr numbers its rotations in gate order.
        angles = [gr.parameters[f"theta_{k}"] for k in range(1, len(support))]
        state = run_circuit(with_angles(synthesize(spec, "gr"), angles))
        assert expectation(state, h) == pytest.approx(gr.energy, abs=1e-9)


def test_vqe_single_configuration_has_no_parameters():
    rng = np.random.default_rng(74)
    h = number_conserving_hamiltonian(rng, 3)
    spec = validate_spec([(1.0, "110")])
    result = vqe_minimize(h, spec)
    assert result.parameters == {}
    assert result.restarts_used == 0
    assert result.energy == pytest.approx(
        expectation(basis_state(OnConfig.from_string("110")), h), abs=1e-12
    )


def test_vqe_names_rotations_as_the_synthesizers_number_them():
    rng = np.random.default_rng(76)
    # CISD(4,2) has 15 rotations, so string order differs from numeric order.
    for support in (TWO_ORBITAL_SECTOR, [str(x) for x in generate_cisd_configs(4, 2)]):
        spec = validate_spec([(1 / math.sqrt(len(support)), s) for s in support])
        h = number_conserving_hamiltonian(rng, len(support[0]))
        names = [f"theta_{k}" for k in range(1, len(support))]
        for method in ("gr", "ssp"):
            result = vqe_minimize(h, spec, method, restarts=1, seed=8, maxiter=3)
            assert list(result.parameters) == sorted(names)
            # gr counts rotations in gate order, ssp from the last gate.
            in_gate_order = names if method == "gr" else names[::-1]
            circuit = with_angles(
                synthesize(spec, method), [result.parameters[name] for name in in_gate_order]
            )
            assert expectation(run_circuit(circuit), h) == pytest.approx(result.energy, abs=1e-12)
    assert sorted(names) != names


def test_vqe_runs_where_the_spec_angles_underflow():
    spec = validate_spec([(1e-13, "1100"), (1.0, "1010"), (1e-13, "0110")])
    with pytest.raises(AngleUnderflowError):
        synthesize_gr(spec)
    h = number_conserving_hamiltonian(np.random.default_rng(75), 4)
    result = vqe_minimize(h, spec, "gr", restarts=2, seed=3)
    assert float(result.energy).hex() == "-0x1.c164b10be1bb1p+1"
    assert {k: v.hex() for k, v in result.parameters.items()} == {
        "theta_1": "0x1.095d42e0ec3b9p-3", "theta_2": "-0x1.58162ec86e311p+0",
    }
    assert (result.stop_reason, result.restarts_used) == ("gradient", 2)


def test_vqe_rejects_unknown_method():
    h = PauliSum.from_terms([(1.0, "ZZ")])
    spec = validate_spec([(1.0, "10")])
    with pytest.raises(ValueError):
        vqe_minimize(h, spec, method="annealing")


def rosenbrock(v):
    x, y = v
    value = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    return value, np.array([-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])


def convex_quadratic(rng, n: int):
    """f = x.A.x / 2 - b.x with a seeded positive definite A, and its
    minimizer A^-1 b."""
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), np.linalg.solve(a, b)


def vqe_energy(rng, method: str):
    """The 6-qubit CISD(3,2) ansatz energy of a seeded operator over the
    circuit's rotation angles in gate order, with a random start."""
    cisd = [str(x) for x in generate_cisd_configs(3, 2)]
    spec = validate_spec([(1 / math.sqrt(len(cisd)), s) for s in cisd])
    circuit = synthesize(spec, method)
    h = number_conserving_hamiltonian(rng, 6)
    start = rng.uniform(-math.pi, math.pi, sum(1 for g in circuit.gates if g.params))
    return (lambda v: energy_gradient(circuit, v, h)), start


def test_bfgs_reaches_rosenbrock_minimum_by_gradient():
    result = _bfgs(rosenbrock, np.array([-1.2, 1.0]), 500)
    assert result.stop_reason == "gradient"
    assert np.max(np.abs(rosenbrock(result.x)[1])) <= 1e-10
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-9)


def test_bfgs_reaches_convex_quadratic_minimizer():
    fun, minimizer = convex_quadratic(np.random.default_rng(20), 20)
    result = _bfgs(fun, np.zeros(20), 500)
    assert np.max(np.abs(result.x - minimizer)) <= 1e-8


def test_bfgs_steps_meet_strong_wolfe():
    rng = np.random.default_rng(21)
    quadratic, _ = convex_quadratic(rng, 20)
    problems = [(rosenbrock, np.array([-1.2, 1.0])), (quadratic, np.zeros(20)),
                vqe_energy(rng, "gr"), vqe_energy(rng, "ssp")]
    for fun, start in problems:
        path = []
        _bfgs(fun, start, 500, callback=lambda x, f, g: path.append((x.copy(), f, g.copy())))
        assert len(path) > 3
        for (x0, f0, g0), (x1, f1, g1) in zip(path, path[1:]):
            slope = g0 @ (x1 - x0)
            assert slope < 0
            assert f1 <= f0 + 1e-4 * slope
            assert abs(g1 @ (x1 - x0)) <= 0.9 * abs(slope)


def test_bfgs_returns_at_once_from_a_stationary_point():
    evaluated = []

    def fun(v):
        evaluated.append(v.copy())
        return rosenbrock(v)

    result = _bfgs(fun, np.array([1.0, 1.0]), 500)
    assert result.stop_reason == "gradient"
    assert len(evaluated) == 1
    assert result.f == 0.0 and list(result.x) == [1.0, 1.0]


def test_bfgs_gives_up_at_once_when_rounding_decides_the_line_search():
    # As at a converged minimum: every step reads higher by rounding, and the
    # gradient promises a decrease far below the decrease stop.
    start = np.full(3, 1e-4)
    evaluated = []

    def fun(v):
        evaluated.append(v)
        return 5.0 + (0.0 if np.array_equal(v, start) else 2e-15), 1e-4 * v

    result = _bfgs(fun, start, 500)
    assert result.stop_reason == "decrease"
    assert len(evaluated) == 2
    assert result.f == 5.0 and np.array_equal(result.x, start)


def test_bfgs_never_returns_above_an_evaluated_point():
    # The last case's gradient points uphill, so no step is ever accepted.
    rng = np.random.default_rng(22)
    cases = [(rosenbrock, np.array([-1.2, 1.0]), maxiter) for maxiter in (1, 2, 5, 500)]
    for method in ("gr", "ssp"):
        cases += [(*vqe_energy(rng, method), maxiter) for maxiter in (1, 500)]
    cases.append((lambda v: (float(v @ v), -2 * v), np.array([0.5, -0.3]), 500))
    reasons = set()
    for fun, start, maxiter in cases:
        values = []

        def recorded(v):
            f, g = fun(v)
            values.append(f)
            return f, g

        result = _bfgs(recorded, start, maxiter)
        assert result.f == min(values) <= values[0]
        assert fun(result.x)[0] == result.f
        reasons.add(result.stop_reason)
    assert reasons >= {"maxiter", "line search"}


# --- phase-series estimation ----------------------------------------------------------


def test_qcels_recovers_eigenvalue_from_eigenstate():
    rng = np.random.default_rng(75)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        h = random_sum(rng, n, 6)
        values, vectors = np.linalg.eigh(h.matrix())
        k = int(rng.integers(0, 1 << n))
        state = vectors[:, k].astype(complex)
        spread = values[-1] - values[0]
        tau = 0.9 * 2 * math.pi / spread
        series = qcels_series(state, h, tau, 24)
        assert abs(qcels_estimate(series) - values[k]) < 1e-10


def test_qcels_grid_scores_match_objective():
    # The FFT scores the grid -pi/tau + 2 pi k / (10 N tau); each score must be
    # the objective evaluated directly at that energy.
    rng = np.random.default_rng(79)
    for _ in range(20):
        n_samples = int(rng.integers(2, 200))
        tau = float(rng.uniform(0.05, 2.0))
        energies = rng.uniform(-3, 3, 5)
        weights = rng.dirichlet(np.ones(5))
        values = (weights[None, :] * np.exp(-1j * np.outer(np.arange(n_samples) * tau, energies))).sum(axis=1)
        series = QcelsSeries(tau, values, 0.0)
        grid = np.linspace(-math.pi / tau, math.pi / tau, 10 * n_samples, endpoint=False)
        steps = np.arange(n_samples) * tau
        direct = np.array([abs(np.sum(values * np.exp(1j * steps * e))) ** 2 for e in grid])
        scores = _qcels_grid_scores(series)
        assert scores.shape == direct.shape
        assert np.max(np.abs(scores - direct)) <= 1e-12 * np.max(direct)
        assert np.argmax(scores) == np.argmax(direct)


def test_qcels_sparse_series_matches_eigendecomposition():
    rng = np.random.default_rng(76)
    n = MAX_DENSE_EIGEN_QUBITS + 1
    pairs = number_conserving_terms(rng, n)
    h = PauliSum.from_terms(pairs + [(2.5, "I" * n)], n)
    # The sum conserves particle number, so a two-particle state evolves inside
    # the two-particle block, whose eigendecomposition is the oracle.
    configs = [
        OnConfig.from_string("".join("1" if q in pair else "0" for q in range(n)))
        for pair in itertools.combinations(range(n), 2)
    ]
    values, vectors = np.linalg.eigh(h.block(np.array([x.index for x in configs])))
    coeffs = rng.standard_normal(len(configs))
    coeffs /= np.linalg.norm(coeffs)
    amps = np.zeros(1 << n, dtype=complex)
    amps[[x.index for x in configs]] = coeffs
    # Twice the coefficient 1-norm bounds the spectral range from above.
    tau = 0.9 * math.pi / sum(abs(c) for c, _ in pairs)
    series = qcels_series(amps, h, tau, 8)
    weights = np.abs(vectors.conj().T @ coeffs) ** 2
    steps = np.arange(8) * tau
    expected = (weights[None, :] * np.exp(-1j * np.outer(steps, values))).sum(axis=1)
    # The state touches the two-particle block alone, so the window is
    # centred on the middle of that block's range, not of the whole spectrum.
    assert series.shift == pytest.approx((values[0] + values[-1]) / 2, abs=1e-9)
    assert np.abs(series.values * np.exp(-1j * series.shift * steps) - expected).max() < 1e-9


def two_sector_state(rng, n: int) -> np.ndarray:
    """Random normalized state on the sectors of weight 1 and n // 2."""
    weight = sum((np.arange(1 << n) >> k) & 1 for k in range(n))
    amps = np.where((weight == 1) | (weight == n // 2), random_state(rng, n), 0)
    return amps / np.linalg.norm(amps)


def test_qcels_sector_series_matches_dense_eigensystem():
    rng = np.random.default_rng(80)
    for n in (2, 5, 8, 10):
        h = conserving_sum(rng, n)
        assert len(h.sectors) == n + 1
        state = two_sector_state(rng, n)
        values, vectors = np.linalg.eigh(h.matrix())
        tau = 0.9 * 2 * math.pi / (values[-1] - values[0])
        series = qcels_series(state, h, tau, 12)
        weights = np.abs(vectors.conj().T @ state) ** 2
        steps = np.arange(12) * tau
        shifted = values - series.shift
        expected = (weights[None, :] * np.exp(-1j * np.outer(steps, shifted))).sum(axis=1)
        assert np.abs(series.values - expected).max() < 1e-10


def test_qcels_sector_series_matches_evolution_above_ten_qubits():
    # Conserving sums keep every block within 2^10 rows up to 12 qubits,
    # C(12, 6) = 924, so QCELS solves blocks where it used to evolve.
    rng = np.random.default_rng(81)
    for n in (11, 12):
        pairs = number_conserving_terms(rng, n)
        h = PauliSum.from_terms(pairs, n)
        assert max(map(len, h.sectors)) == math.comb(n, n // 2)
        state = two_sector_state(rng, n)
        tau = 0.9 * math.pi / sum(abs(c) for c, _ in pairs)
        series = qcels_series(state, h, tau, 6)
        current, expected = state, [1.0]
        for _ in range(5):
            current = evolve(current, h, tau)
            expected.append(np.vdot(state, current))
        unshifted = series.values * np.exp(-1j * series.shift * tau * np.arange(6))
        assert np.abs(unshifted - np.array(expected)).max() < 1e-10


def test_qcels_krylov_series_matches_commuting_product():
    # XY and a lone X break particle number, so the sum is one block of 2^11
    # rows and QCELS evolves the state. Words on disjoint qubits commute, so
    # exp(-i H t) is the product of cos(c t) - i sin(c t) P over the words.
    rng = np.random.default_rng(82)
    n = 11
    letters = ["XYZ" + "I" * 8, "III" + "YYX" + "I" * 5, "I" * 6 + "ZXY" + "II", "I" * 9 + "XZ"]
    coeffs = rng.uniform(0.5, 1.5, len(letters))
    h = PauliSum.from_terms([*zip(coeffs, letters), (0.75, "I" * n)], n)
    assert [len(s) for s in h.sectors] == [1 << n]
    state = random_state(rng, n)
    tau = 0.9 * math.pi / coeffs.sum()
    series = qcels_series(state, h, tau, 6)
    # Each word has eigenvalues +-1, so the spectrum is symmetric about 0.75.
    assert series.shift == pytest.approx(0.75, abs=1e-9)
    # The product leaves out the identity word's phase exp(-0.75 i tau k).
    unshifted = series.values * np.exp(-1j * (series.shift - 0.75) * tau * np.arange(6))
    words = [PauliWord.from_string(text) for text in letters]
    for k in range(6):
        image = state
        for c, word in zip(coeffs, words):
            angle = c * tau * k
            image = math.cos(angle) * image - 1j * math.sin(angle) * apply_word(word, image)
        assert abs(unshifted[k] - np.vdot(state, image)) < 1e-10


def _spread(h: PauliSum) -> float:
    values = exact_spectrum(h)
    return float(values[-1] - values[0])


def test_qcels_restores_identity_shift():
    rng = np.random.default_rng(77)
    pairs = random_terms(rng, 3, 5)
    base = PauliSum.from_terms(pairs, 3)
    shifted = PauliSum.from_terms(pairs + [(17.5, "III")], 3)
    values, vectors = np.linalg.eigh(base.matrix())
    state = vectors[:, 0].astype(complex)
    tau = 0.8 * 2 * math.pi / _spread(base)
    series = qcels_series(state, shifted, tau, 24)
    assert series.shift == pytest.approx(17.5 + (values[0] + values[-1]) / 2)
    assert abs(qcels_estimate(series) - (values[0] + 17.5)) < 1e-9


def test_qcels_window_holds_a_lopsided_spectrum():
    # -ZI - IZ + ZZ has eigenvalues -1, -1, -1 and 3. The energy 3 lies
    # outside [-pi/1.2, pi/1.2) around the identity coefficient 0, where it
    # used to alias to 3 - 2 pi/1.2. |11> touches only its own one-state
    # block, so the window is centred on that block's energy, 3.
    h = PauliSum.from_terms([(-1.0, "ZI"), (-1.0, "IZ"), (1.0, "ZZ")])
    state = basis_state(OnConfig.from_string("11"))
    for tau in (0.7, 1.2):
        series = qcels_series(state, h, tau, 32)
        assert series.shift == 3.0
        assert abs(qcels_estimate(series) - 3.0) < 1e-9


def sector_indices(n: int, weight: int) -> np.ndarray:
    """Basis indices with `weight` bits set, ascending."""
    indices = np.arange(1 << n)
    return indices[sum((indices >> k) & 1 for k in range(n)) == weight]


def block_spectrum(h: PauliSum, indices: np.ndarray):
    """Eigenpairs of h's dense matrix restricted to the basis states."""
    return np.linalg.eigh(h.matrix()[np.ix_(indices, indices)])


def test_qcels_checks_the_step_against_the_touched_block():
    # A state inside the one-particle sector sees only that block's energies,
    # so a step that aliases the whole spectrum but not the block's range is
    # accepted, and the window is centred on the block's range.
    rng = np.random.default_rng(83)
    n = 6
    h = number_conserving_hamiltonian(rng, n)
    sector = sector_indices(n, 1)
    values, vectors = block_spectrum(h, sector)
    touched, full = values[-1] - values[0], _spread(h)
    tau = math.pi / touched + math.pi / full
    assert 2 * math.pi / full < tau < 2 * math.pi / touched
    for k in (0, len(sector) - 1):
        state = np.zeros(1 << n, dtype=complex)
        state[sector] = vectors[:, k]
        series = qcels_series(state, h, tau, 32)
        assert series.shift == pytest.approx((values[0] + values[-1]) / 2, abs=1e-12)
        assert abs(qcels_estimate(series) - values[k]) < 1e-9
    # A mixed state of the block: the estimate of the series built from the
    # block's eigensystem is the oracle.
    amps = vectors[:, 0] + 0.4 * vectors[:, 1:] @ rng.standard_normal(len(sector) - 1)
    amps /= np.linalg.norm(amps)
    state = np.zeros(1 << n, dtype=complex)
    state[sector] = amps
    shift = (values[0] + values[-1]) / 2
    weights = np.abs(vectors.conj().T @ amps) ** 2
    steps = np.arange(32) * tau
    oracle = QcelsSeries(tau, (weights * np.exp(-1j * np.outer(steps, values - shift))).sum(axis=1), shift)
    assert abs(qcels_estimate(qcels_series(state, h, tau, 32)) - qcels_estimate(oracle)) < 1e-9


def test_qcels_rejects_a_step_that_aliases_the_touched_union():
    # A superposition over the one- and five-particle sectors of 6 qubits:
    # each block's range fits the step, but their union does not, so the
    # step is rejected. Just below the union's limit it is accepted, though
    # it aliases the whole spectrum.
    rng = np.random.default_rng(84)
    n = 6
    h = number_conserving_hamiltonian(rng, n)
    touched = np.concatenate([sector_indices(n, 1), sector_indices(n, 5)])
    state = np.zeros(1 << n, dtype=complex)
    state[touched] = random_state(rng, n)[touched]
    state /= np.linalg.norm(state)
    ranges = [block_spectrum(h, sector_indices(n, w))[0][[0, -1]] for w in (1, 5)]
    low, high = min(lo for lo, _ in ranges), max(hi for _, hi in ranges)
    widest = max(hi - lo for lo, hi in ranges)
    tau = 1.01 * 2 * math.pi / (high - low)
    assert tau < 2 * math.pi / widest
    with pytest.raises(TauTooLarge, match="of the blocks the state touches"):
        qcels_series(state, h, tau, 8)
    tau = 0.99 * 2 * math.pi / (high - low)
    assert tau > 2 * math.pi / _spread(h)
    assert qcels_series(state, h, tau, 8).shift == pytest.approx((low + high) / 2, abs=1e-12)


def test_qcels_solves_each_touched_block_once(monkeypatch):
    # The touched blocks' eigenpairs give both the range the step is checked
    # against and the series, so no block is solved twice and no untouched
    # block is solved at all.
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = np.random.default_rng(85)
    # 12 qubits conserving particle number: a 4-particle state touches the
    # one block of C(12, 4) = 495 rows among the 13 sectors.
    pairs = number_conserving_terms(rng, 12)
    h = PauliSum.from_terms(pairs, 12)
    assert len(h.sectors) == 13
    state = np.zeros(1 << 12, dtype=complex)
    sector = sector_indices(12, 4)
    state[sector] = rng.standard_normal(len(sector))
    state /= np.linalg.norm(state)
    qcels_series(state, h, 0.9 * math.pi / sum(abs(c) for c, _ in pairs), 6)
    assert calls == ["eigh"]
    # 10 qubits, not conserving: one block of 2^10 rows, solved once.
    calls.clear()
    pairs = random_terms(rng, 10, 30)
    h = PauliSum.from_terms(pairs, 10)
    assert [len(s) for s in h.sectors] == [1 << 10]
    qcels_series(random_state(rng, 10), h, 0.9 * math.pi / sum(abs(c) for c, _ in pairs), 8)
    assert calls == ["eigh"]


def test_qcels_rejects_a_register_above_the_evolution_budget_before_any_eigensolve(monkeypatch):
    # Above 14 qubits evolve refuses the register, so the two eigsh calls of
    # the spectral range, which take minutes there, must not run first.
    def no_range(h):
        raise AssertionError("spectral range computed for a register evolve rejects")

    monkeypatch.setattr(algorithms, "_spectral_range", no_range)
    n = 15
    h = PauliSum.from_terms([(1.0, "Z" + "I" * (n - 1)), (0.5, "XX" + "I" * (n - 2))], n)
    assert not algorithms._diagonalizable(h)
    state = basis_state(OnConfig.from_string("1" * 2 + "0" * (n - 2)))
    with pytest.raises(ValueError, match="^15 qubits exceeds evolution budget 14$"):
        qcels_series(state, h, 0.1, 8)


def test_qcels_rejects_a_state_of_another_register_before_any_eigensolve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("eigensolve run for a state of another register")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(algorithms, "_spectral_range", no_solve)
    rng = np.random.default_rng(86)
    # Two qubits take the eigen path; eleven non-conserving ones take evolve's.
    for n, terms in ((2, 5), (MAX_DENSE_EIGEN_QUBITS + 1, 30)):
        h = random_sum(rng, n, terms)
        assert algorithms._diagonalizable(h) == (n == 2)
        for size in (1 << (n + 1), 1 << (n - 1)):
            state = np.full(size, size**-0.5, dtype=complex)
            message = rf"^state of shape \({size},\) does not match {n} qubits$"
            with pytest.raises(ValueError, match=message):
                qcels_series(state, h, 0.1, 8)


def test_qcels_rejects_bad_sampling():
    rng = np.random.default_rng(78)
    h = random_sum(rng, 3, 5)
    state = basis_state(OnConfig.from_string("000"))
    with pytest.raises(TauTooLarge):
        qcels_series(state, h, 2 * math.pi / _spread(h) + 1.0, 8)
    with pytest.raises(ValueError):
        qcels_series(state, h, -0.1, 8)
    with pytest.raises(ValueError):
        qcels_series(state, h, 0.1, 1)


def test_qcels_rejects_flat_objective():
    # A single nonzero sample makes the objective constant: there is no peak.
    with pytest.raises(ValueError, match="no peak"):
        qcels_estimate(QcelsSeries(0.5, np.array([1, 0]), 0.0))


# --- excited-state matrices ---------------------------------------------------------


def exact_ground_ansatz(h: PauliSum, hf: OnConfig):
    """Rotation ansatz preparing the closed-sector ground state from |hf>."""
    configs = [OnConfig.from_string(s) for s in TWO_ORBITAL_SECTOR]
    values, vectors = np.linalg.eigh(h.block(np.array([x.index for x in configs])))
    ground = np.real(vectors[:, 0])
    assert np.abs(np.imag(vectors[:, 0])).max() < 1e-12
    if abs(ground[0]) < 1e-6:
        return None, None
    if ground[0] < 0:
        ground = -ground
    spec = validate_spec(
        [(float(ground[k]), configs[k]) for k in range(4) if abs(ground[k]) > 1e-13]
    )
    # reference first: keep hf in front without reordering
    assert spec.configs[0] == hf
    return synthesize_gr(spec, include_reference_prep=False), values


def test_sceom_matrix_reproduces_exact_excitation_energies():
    rng = np.random.default_rng(79)
    hf = OnConfig.from_string("1100")
    done = 0
    while done < 4:
        h = spin_conserving_hamiltonian(rng)
        ansatz, values = exact_ground_ansatz(h, hf)
        if ansatz is None:
            continue
        excitations = cisd_excitations(hf)
        for prep in ("gr", "ssp"):
            m = sceom_m_matrix(h, hf, excitations, ansatz, prep_method=prep)
            assert np.max(np.abs(m.values - m.values.T)) < 1e-9
            assert m.ground_energy == pytest.approx(values[0], abs=1e-9)
            energies = sceom_energies(m.values)
            expected = values[1:] - values[0]
            assert np.allclose(energies, expected, atol=1e-6)
        done += 1


def test_sceom_off_diagonal_reconstruction_identity():
    rng = np.random.default_rng(80)
    hf = OnConfig.from_string("1100")
    h = spin_conserving_hamiltonian(rng)
    ansatz, _ = exact_ground_ansatz(h, hf)
    assert ansatz is not None
    excitations = cisd_excitations(hf)
    m = sceom_m_matrix(h, hf, excitations, ansatz)
    dense = h.matrix()
    for a, op_a in enumerate(excitations):
        xa, sa = apply_excitation(op_a, hf)
        phi_a = run_circuit(ansatz, basis_state(xa))
        for b in range(a + 1, len(excitations)):
            xb, sb = apply_excitation(excitations[b], hf)
            phi_b = run_circuit(ansatz, basis_state(xb))
            direct = sa * sb * np.vdot(phi_a, dense @ phi_b).real
            assert m.values[a, b] == pytest.approx(direct, abs=1e-9)


def test_sceom_rejects_invalid_probes():
    hf = OnConfig.from_string("1100")
    h = PauliSum.from_terms([(1.0, "ZZII")])
    ansatz = synthesize_gr(validate_spec([(1.0, hf)]), include_reference_prep=False)
    with pytest.raises(ValueError):
        sceom_m_matrix(h, hf, [ExcitationOp((2,), (0,))], ansatz)  # annihilates empty mode
    colliding = [ExcitationOp((0,), (2,)), ExcitationOp((0,), (2,))]
    with pytest.raises(ValueError):
        sceom_m_matrix(h, hf, colliding, ansatz)
    with pytest.raises(ValueError):
        sceom_m_matrix(h, hf, cisd_excitations(hf), ansatz, prep_method="magic")


def test_sceom_rejects_an_ansatz_that_moves_the_reference_out_of_its_sector():
    """A preparation circuit builds the reference from |0000> with X gates, so
    as an ansatz it sends the prepared reference to weight 0; the same
    circuit without the reference preparation gives <psi|H|psi>."""
    h = PauliSum.from_terms([
        (-0.5, "ZIII"), (0.25, "IZII"), (0.3, "ZZII"), (0.35, "XIXI"), (0.35, "YIYI"),
        (0.15, "IXIX"), (0.15, "IYIY"),
    ])
    hf = OnConfig.from_string("1100")
    spec = validate_spec([(0.9, "1100"), (math.sqrt(0.095), "0110"), (math.sqrt(0.095), "1001")])
    with pytest.raises(ValueError, match=r"ansatz U keeps weight 0 of U\|1100> in the reference's 2-"):
        sceom_m_matrix(h, hf, cisd_excitations(hf), synthesize_gr(spec))
    ansatz = synthesize_gr(spec, include_reference_prep=False)
    m = sceom_m_matrix(h, hf, cisd_excitations(hf), ansatz)
    assert m.ground_energy == pytest.approx(expectation(run_circuit(synthesize_gr(spec)), h), abs=1e-12)
    assert m.ground_energy == pytest.approx(0.943297, abs=1e-6)


def test_sceom_energies_validates_symmetry():
    lopsided = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sceom_energies(lopsided)
    fine = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert sceom_energies(fine) == pytest.approx(np.linalg.eigvalsh(fine))
    with pytest.raises(ValueError):
        sceom_energies(np.zeros((2, 3)))


def test_sceom_element_resources_favor_sparse_method():
    hf = OnConfig.from_string("11110000")
    ops = cisd_excitations(hf)
    rows = sceom_element_resources(hf, ops)
    assert rows
    for row in rows:
        assert row.ssp_two_qubit <= row.gr_two_qubit
        xa, _ = apply_excitation(ops[row.i], hf)
        xb, _ = apply_excitation(ops[row.j], hf)
        assert row.pair_distance == hamming(xa, xb)
    # Costlier pairs sit at larger Hamming separations on average.
    distances: dict[int, list[int]] = {}
    for row in rows:
        distances.setdefault(row.pair_distance, []).append(row.gr_two_qubit)
    means = {d: float(np.mean(v)) for d, v in distances.items()}
    ordered = sorted(means)
    assert all(means[a] <= means[b] for a, b in zip(ordered, ordered[1:]))
