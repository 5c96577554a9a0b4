import math

import numpy as np
import pytest

import ggmselect as gs
from ggmselect import InvalidInputError, core, tuning
from ggmselect.tuning import _pick_minimum

from helpers import random_covariance


def test_grid_two_points_hits_endpoints():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    grid = gs.lambda_grid(A, grid_size=2)
    assert np.array_equal(grid.values, [1.0, 0.05])
    assert grid.s_max == 1.0


def test_grid_ratio_is_geometric():
    rng = np.random.default_rng(80)
    A = random_covariance(rng, 6)
    for size in (2, 5, 10):
        grid = gs.lambda_grid(A, grid_size=size)
        expected = 0.05 ** (1.0 / (size - 1))
        ratios = grid.values[1:] / grid.values[:-1]
        assert np.allclose(ratios, expected, rtol=1e-12)
        assert grid.values[0] == grid.s_max
        assert grid.values[-1] == pytest.approx(0.05 * grid.s_max, rel=1e-12)


def test_grid_scales_with_covariance():
    rng = np.random.default_rng(81)
    A = random_covariance(rng, 4)
    base = gs.lambda_grid(A, 6)
    scaled = gs.lambda_grid(3.0 * A, 6)
    assert np.allclose(scaled.values, 3.0 * base.values, rtol=1e-12)


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        gs.lambda_grid(np.eye(3), 10)  # no off-diagonal signal
    rng = np.random.default_rng(82)
    with pytest.raises(InvalidInputError):
        gs.lambda_grid(random_covariance(rng, 3), 1)
    for values, s_max, message in (
        ([], 1.0, "nonempty vector"),
        ([[1.0, 0.5]], 1.0, "nonempty vector"),
        ([1.0, 1.0], 1.0, "strictly decreasing"),
        ([1.0, 0.5], 2.0, r"\(0, s_max\]"),
        ([1.0, -0.5], 1.0, r"\(0, s_max\]"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            gs.LambdaGrid(values=np.array(values), s_max=s_max)


def test_ebic_identity_case():
    n, d = 40, 6
    score = gs.ebic_score(np.eye(d), np.eye(d), n=n, gamma=0.5)
    assert score == pytest.approx(n * d, rel=1e-12)


def test_ebic_gamma_zero_is_bic():
    rng = np.random.default_rng(83)
    A = random_covariance(rng, 5)
    K1 = gs.glasso(A, gs.SolverConfig(lam=0.05)).precision
    K2 = gs.glasso(A, gs.SolverConfig(lam=0.3)).precision
    n = 60

    def loglik(K):
        sign, logdet = np.linalg.slogdet(K)
        return 0.5 * n * (logdet - np.sum(K * A))

    delta_edges = len(gs.edges_from_precision(K1)) - len(gs.edges_from_precision(K2))
    expected_gap = -2 * (loglik(K1) - loglik(K2)) + delta_edges * math.log(n)
    gap = gs.ebic_score(K1, A, n, 0.0) - gs.ebic_score(K2, A, n, 0.0)
    assert gap == pytest.approx(expected_gap, rel=1e-10, abs=1e-10)


def test_ebic_matches_term_by_term_oracle():
    rng = np.random.default_rng(84)
    d, n, gamma = 5, 75, 0.5
    A = random_covariance(rng, d)
    K = gs.glasso(A, gs.SolverConfig(lam=0.1)).precision
    logdet = float(np.sum(np.log(np.linalg.eigvalsh(K))))
    trace = sum(K[i, j] * A[j, i] for i in range(d) for j in range(d))
    edges = sum(
        1 for i in range(d) for j in range(i + 1, d) if abs(K[i, j]) > 1e-8
    )
    expected = (
        -2.0 * (0.5 * n * (logdet - trace))
        + edges * math.log(n)
        + 4.0 * gamma * edges * math.log(d)
    )
    assert abs(gs.ebic_score(K, A, n, gamma) - expected) <= 1e-10


def test_ebic_strictly_increasing_in_edge_count():
    # same K scored at two thresholds that straddle a small entry: the
    # likelihood term is identical, so more counted edges means a larger score
    K = np.eye(4)
    K[0, 1] = K[1, 0] = 5e-6
    K[2, 3] = K[3, 2] = 0.4
    A = np.eye(4)
    sparse_count = gs.ebic_score(K, A, n=30, gamma=0.5, zero_tol=1e-4)
    dense_count = gs.ebic_score(K, A, n=30, gamma=0.5, zero_tol=1e-8)
    assert dense_count > sparse_count


def test_ebic_validation():
    for gamma in (-0.5, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="gamma must be finite and >= 0"):
            gs.ebic_score(np.eye(3), np.eye(3), n=30, gamma=gamma)
    # d is the size of A: a 1 x 1 pair has no edge to score.
    for n, d in ((1, 3), (30, 1)):
        with pytest.raises(InvalidInputError, match="need n >= 2 and d >= 2"):
            gs.ebic_score(np.eye(d), np.eye(d), n=n, gamma=0.5)
    with pytest.raises(InvalidInputError, match="dimensions differ"):
        gs.ebic_score(np.eye(2), np.eye(3), n=30, gamma=0.5)
    with pytest.raises(gs.SingularInputError):
        gs.ebic_score(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 30, 0.5)


def test_ebic_select_single_value_grid():
    rng = np.random.default_rng(85)
    A = gs.empirical_covariance(rng.standard_normal((40, 4)))
    grid = gs.LambdaGrid(values=np.array([0.2]), s_max=0.2)
    result = gs.ebic_select(A, grid, 40)
    assert result.chosen_lambda == 0.2
    assert len(result.scores) == 1


@pytest.mark.parametrize(
    "settings, message",
    [
        (lambda: {"gamma": math.nan}, "gamma must be finite and >= 0, got nan"),
        (lambda: {"gamma": math.inf}, "gamma must be finite and >= 0, got inf"),
        # The edge threshold is a solver setting, checked when its config is made.
        (
            lambda: {"solver_config": gs.SolverConfig(0.0, zero_tol=math.nan)},
            "zero_tol must be finite and nonnegative, got nan",
        ),
        (
            lambda: {"solver_config": gs.SolverConfig(0.0, zero_tol=math.inf)},
            "zero_tol must be finite and nonnegative, got inf",
        ),
    ],
    ids=["gamma-nan", "gamma-inf", "zero-tol-nan", "zero-tol-inf"],
)
def test_ebic_select_rejects_a_non_finite_setting_before_any_fit(monkeypatch, settings, message):
    # A NaN gamma gave empty scores and an infinite one picked s_max.
    A = gs.empirical_covariance(np.random.default_rng(87).standard_normal((40, 4)))
    grid = gs.lambda_grid(A, 3)
    fits = []
    monkeypatch.setattr(tuning, "glasso", lambda *args, **kwargs: fits.append(args))
    with pytest.raises(InvalidInputError, match=message):
        gs.ebic_select(A, grid, 40, **settings())
    assert fits == []


@pytest.mark.parametrize(
    "A, n, message",
    [
        (np.eye(4), 1, "need n >= 2 and d >= 2, got n=1, d=4"),
        (np.eye(1), 40, "need n >= 2 and d >= 2, got n=40, d=1"),
        (np.ones((4, 3)), 40, "covariance matrix must be square"),
        (np.triu(np.ones((4, 4))), 40, "covariance matrix is not symmetric"),
    ],
    ids=["one-sample", "one-variable", "not-square", "not-symmetric"],
)
def test_ebic_select_checks_the_sample_before_any_fit(monkeypatch, A, n, message):
    # n was first checked inside ebic_score, after the first fit.
    grid = gs.LambdaGrid(values=np.array([0.2]), s_max=0.2)
    fits = []
    monkeypatch.setattr(tuning, "glasso", lambda *args, **kwargs: fits.append(args))
    with pytest.raises(InvalidInputError, match=message):
        gs.ebic_select(A, grid, n)
    assert fits == []


def test_ebic_select_forms_no_covariance_of_its_own(monkeypatch):
    data = gs.sample_gaussian(gs.generate_precision(6, 0.3, seed=88), 60, seed=89)
    A = gs.empirical_covariance(data)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return core._cov(*args, **kwargs)

    monkeypatch.setattr(tuning, "_cov", counted)
    result = gs.ebic_select(A, gs.lambda_grid(A, 4), data.n)
    assert calls == []
    assert len(result.scores) == 4


def test_ebic_score_reads_d_from_the_covariance():
    # With d passed on its own, d = 300 scored these 3 x 3 matrices 59.8992.
    K = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.3], [0.0, 0.3, 2.0]])
    A = np.linalg.inv(K)
    n, gamma = 30, 0.5
    loglik = 0.5 * n * (np.linalg.slogdet(K)[1] - np.sum(K * A))
    expected = -2.0 * loglik + 2 * math.log(n) + 4.0 * gamma * 2 * math.log(3)
    score = gs.ebic_score(K, A, n, gamma)
    assert score == pytest.approx(expected, rel=1e-12)
    assert score == pytest.approx(41.4785, abs=1e-4)


def test_loglik_maximized_at_unpenalized_mle():
    rng = np.random.default_rng(86)
    d, n = 4, 50
    A = random_covariance(rng, d, n=n)
    K_mle = np.linalg.inv(A)

    def loglik(K):
        sign, logdet = np.linalg.slogdet(K)
        return 0.5 * n * (logdet - np.sum(K * A))

    best = loglik(K_mle)
    for _ in range(20):
        perturbation = rng.standard_normal((d, d)) * 0.05
        candidate = K_mle + (perturbation + perturbation.T) / 2
        if np.linalg.eigvalsh(candidate).min() <= 0:
            continue
        assert loglik(candidate) < best


def test_cv_matches_exhaustive_leave_one_out():
    rng = np.random.default_rng(87)
    values = rng.standard_normal((6, 2)) + np.array([0.0, 1.0])
    data = gs.DataMatrix(values)
    A = gs.empirical_covariance(data)
    grid = gs.lambda_grid(A, 4)
    result = gs.cv_select(data, folds=6, grid=grid, seed=123)

    # oracle: enumerate every leave-one-out split directly, no warm starts
    oracle_scores = []
    for lam in grid.values:
        total = 0.0
        for leave in range(6):
            train = np.delete(values, leave, axis=0)
            A_train = gs.empirical_covariance(train)
            fit = gs.glasso(A_train, gs.SolverConfig(lam=float(lam)))
            row = values[leave]
            A_val = np.outer(row - row, row - row)  # single-row fold: zero matrix
            sign, logdet = np.linalg.slogdet(fit.precision)
            total += float(np.sum(fit.precision * A_val)) - logdet
        oracle_scores.append(total / 6)
    chosen = _pick_minimum(list(zip(grid.values.tolist(), oracle_scores)))
    assert result.chosen_lambda == pytest.approx(chosen, rel=1e-12)
    for (lam, score), expected in zip(result.scores, oracle_scores):
        assert score == pytest.approx(expected, abs=1e-7)


def test_cv_deterministic_given_seed():
    rng = np.random.default_rng(88)
    data = rng.standard_normal((40, 5))
    A = gs.empirical_covariance(data)
    grid = gs.lambda_grid(A, 5)
    first = gs.cv_select(data, 4, grid, seed=5)
    second = gs.cv_select(data, 4, grid, seed=5)
    assert first.chosen_lambda == second.chosen_lambda
    assert first.scores == second.scores
    assert np.array_equal(first.fold_assignments, second.fold_assignments)


def test_cv_duplicated_rows_preserve_score_ordering():
    rng = np.random.default_rng(89)
    values = rng.standard_normal((12, 3))
    data = gs.DataMatrix(values)
    grid = gs.lambda_grid(gs.empirical_covariance(data), 5)
    base = gs.cv_select(data, folds=3, grid=grid, seed=1)
    # covariances are unchanged by duplicating every row within each fold;
    # rebuild the doubled dataset so each original fold appears twice
    doubled = gs.DataMatrix(np.vstack([values, values]))
    other = gs.cv_select(doubled, folds=3, grid=grid, seed=1)
    base_order = np.argsort([s for _, s in base.scores])
    other_order = np.argsort([s for _, s in other.scores])
    assert base.chosen_lambda in grid.values
    assert other.chosen_lambda in grid.values
    assert len(base_order) == len(other_order)


def test_cv_fold_validation():
    rng = np.random.default_rng(90)
    data = rng.standard_normal((6, 3))
    grid = gs.lambda_grid(gs.empirical_covariance(data), 3)
    with pytest.raises(InvalidInputError):
        gs.cv_select(data, folds=1, grid=grid)
    with pytest.raises(InvalidInputError):
        gs.cv_select(data, folds=7, grid=grid)
    small = rng.standard_normal((2, 3))
    with pytest.raises(InvalidInputError, match="training rows"):
        gs.cv_select(small, folds=2, grid=grid)
    with pytest.raises(InvalidInputError, match="seed must be nonnegative, got -1"):
        gs.cv_select(data, folds=2, grid=grid, seed=-1)


def test_tie_break_prefers_larger_lambda():
    assert _pick_minimum([(0.5, 1.0), (0.3, 1.0), (0.1, 2.0)]) == 0.5
    assert _pick_minimum([(0.5, 3.0), (0.3, 1.0), (0.1, 1.0)]) == 0.3


def test_ebic_gamma_monotone_edge_counts():
    # larger gamma never selects a denser graph
    wins = 0
    for seed in range(50):
        truth = gs.generate_precision(20, 0.08, seed=300 + seed)
        data = gs.sample_gaussian(truth, 400, seed=400 + seed)
        A = gs.empirical_covariance(data)
        grid = gs.lambda_grid(A, 10)
        sparse = gs.ebic_select(A, grid, data.n, gamma=1.0)
        dense = gs.ebic_select(A, grid, data.n, gamma=0.0)
        k_sparse = len(
            gs.edges_from_precision(
                gs.glasso(A, gs.SolverConfig(lam=sparse.chosen_lambda)).precision
            )
        )
        k_dense = len(
            gs.edges_from_precision(
                gs.glasso(A, gs.SolverConfig(lam=dense.chosen_lambda)).precision
            )
        )
        if k_sparse <= k_dense:
            wins += 1
    assert wins == 50


def fixed_strength_truth(d, n_edges, strength, rng):
    """Random support with equal edge magnitudes and a degree cap.

    The cap keeps the unit diagonal dominant, so the matrix is always PD and
    per-edge signal strength does not shrink as the graph densifies.
    """
    cap = int(0.9 / strength)
    degree = np.zeros(d, dtype=int)
    edges = set()
    attempts = 0
    while len(edges) < n_edges and attempts < 20000:
        attempts += 1
        i, j = rng.integers(0, d, 2)
        if i == j:
            continue
        i, j = min(i, j), max(i, j)
        if (i, j) in edges or degree[i] >= cap or degree[j] >= cap:
            continue
        edges.add((i, j))
        degree[i] += 1
        degree[j] += 1
    assert len(edges) == n_edges
    omega = np.eye(d)
    for i, j in edges:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        omega[i, j] = omega[j, i] = sign * strength
    return gs.GroundTruth(
        omega=omega,
        edges=gs.EdgeSet(d, frozenset(edges)),
        sigma=np.linalg.inv(omega),
    )


def test_ebic_prefers_larger_lambda_for_sparser_truth():
    # equal per-edge strength isolates the effect of support density; the
    # chosen penalty is compared as a fraction of each grid's own s_max
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(900 + seed)
        sparse_truth = fixed_strength_truth(20, 4, 0.22, rng)
        dense_truth = fixed_strength_truth(20, 30, 0.22, rng)
        position = {}
        for name, truth in (("sparse", sparse_truth), ("dense", dense_truth)):
            data = gs.sample_gaussian(truth, 400, seed=1100 + seed)
            A = gs.empirical_covariance(data)
            grid = gs.lambda_grid(A, 10)
            chosen = gs.ebic_select(A, grid, data.n, gamma=0.5).chosen_lambda
            position[name] = chosen / grid.s_max
        if position["sparse"] >= position["dense"]:
            hits += 1
    assert hits >= 40
