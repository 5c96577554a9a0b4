import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cho_solve
from scipy.sparse.csgraph import connected_components

import ggmselect as gs
from ggmselect import InvalidInputError, SingularInputError
from ggmselect import solver
from ggmselect.solver import _components, _feature_sign, _glasso_block, _pd_inverse

from helpers import (
    brute_force_objective_d2,
    lasso_gram_cd_reference,
    random_correlated_data,
    random_covariance,
)

property_settings = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_zero_penalty_recovers_inverse():
    rng = np.random.default_rng(10)
    for d in (2, 4, 7):
        A = random_covariance(rng, d)
        result = gs.glasso(A, gs.SolverConfig(lam=0.0))
        assert result.converged
        assert np.abs(result.precision - np.linalg.inv(A)).max() <= 1e-8


def test_saturating_penalty_gives_exact_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = random_covariance(rng, 5)
        lam = gs.max_offdiag_abs(A)
        result = gs.glasso(A, gs.SolverConfig(lam=lam, penalize_diagonal=False))
        off = result.precision.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() == 0.0
        assert np.allclose(np.diag(result.precision), 1.0 / np.diag(A), rtol=1e-12)
        assert result.kkt_residual <= 1e-10


def test_d2_objective_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        X = random_correlated_data(rng, 40, 2, strength=0.6)
        A = gs.empirical_covariance(X)
        for lam, pen in ((0.1, False), (0.1, True), (0.3, True)):
            result = gs.glasso(A, gs.SolverConfig(lam=lam, penalize_diagonal=pen))
            oracle = brute_force_objective_d2(A, lam, pen)
            assert abs(result.objective - oracle) <= 1e-6


def test_d2_spec_instance_against_oracle():
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    result = gs.glasso(A, gs.SolverConfig(lam=0.1, penalize_diagonal=False))
    oracle = brute_force_objective_d2(A, 0.1, False)
    assert abs(result.objective - oracle) <= 1e-6


def test_objective_value_identity_cases():
    d = 4
    assert gs.objective_value(np.eye(d), np.eye(d), gs.SolverConfig(lam=0.0)) == d
    full = gs.objective_value(
        np.eye(d), np.eye(d), gs.SolverConfig(lam=1.0, penalize_diagonal=True)
    )
    assert full == 2 * d


def test_objective_value_matches_eigenvalue_oracle():
    rng = np.random.default_rng(13)
    K = random_covariance(rng, 5) + np.eye(5)
    A = random_covariance(rng, 5)
    config = gs.SolverConfig(lam=0.2, penalize_diagonal=True)
    logdet = float(np.sum(np.log(np.linalg.eigvalsh(K))))
    trace = sum(K[i, j] * A[j, i] for i in range(5) for j in range(5))
    penalty = 0.2 * float(np.abs(K).sum())
    assert abs(gs.objective_value(K, A, config) - (trace - logdet + penalty)) <= 1e-10


def test_kkt_residual_zero_at_unpenalized_mle():
    rng = np.random.default_rng(14)
    A = random_covariance(rng, 6)
    residual = gs.kkt_residual(np.linalg.inv(A), A, gs.SolverConfig(lam=0.0))
    assert residual <= 1e-10


def test_kkt_residual_analytic_diagonal_solution():
    rng = np.random.default_rng(15)
    A = random_covariance(rng, 5)
    lam = gs.max_offdiag_abs(A) * 1.01
    K = np.diag(1.0 / np.diag(A))
    config = gs.SolverConfig(lam=lam, penalize_diagonal=False)
    assert gs.kkt_residual(K, A, config) <= 1e-10


def test_kkt_residual_positive_off_optimum():
    rng = np.random.default_rng(16)
    A = random_covariance(rng, 4)
    config = gs.SolverConfig(lam=0.1)
    result = gs.glasso(A, config)
    perturbed = result.precision + 0.01 * np.eye(4)
    assert gs.kkt_residual(perturbed, A, config) > 1e-4


def test_converged_certificate_is_recheckable():
    rng = np.random.default_rng(17)
    for d in (3, 6, 9):
        A = random_covariance(rng, d)
        config = gs.SolverConfig(lam=0.08)
        result = gs.glasso(A, config)
        assert result.converged
        assert gs.kkt_residual(result.precision, A, config) <= config.kkt_tol
        identity_gap = np.abs(result.precision @ result.covariance - np.eye(d)).max()
        assert identity_gap <= 1e-6


def test_edge_count_monotone_in_penalty():
    truth = gs.generate_precision(20, 0.08, seed=21)
    data = gs.sample_gaussian(truth, 300, seed=22)
    A = gs.empirical_covariance(data)
    counts = []
    for lam in (0.02, 0.05, 0.1, 0.2, 0.4):
        result = gs.glasso(A, gs.SolverConfig(lam=lam))
        counts.append(len(gs.edges_from_precision(result.precision)))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_objective_no_worse_than_inverse_candidate():
    rng = np.random.default_rng(18)
    A = random_covariance(rng, 6)
    config = gs.SolverConfig(lam=0.15)
    result = gs.glasso(A, config)
    assert result.objective <= gs.objective_value(np.linalg.inv(A), A, config) + 1e-12


def test_sign_flip_equivariance():
    rng = np.random.default_rng(19)
    A = random_covariance(rng, 5)
    flip = np.diag([1.0, -1.0, 1.0, -1.0, 1.0])
    config = gs.SolverConfig(lam=0.1)
    base = gs.glasso(A, config)
    flipped = gs.glasso(flip @ A @ flip, config)
    assert np.allclose(flipped.precision, flip @ base.precision @ flip, atol=1e-12)
    assert (
        gs.edges_from_precision(flipped.precision).edges
        == gs.edges_from_precision(base.precision).edges
    )


def test_warm_start_invariance():
    rng = np.random.default_rng(20)
    A = random_covariance(rng, 8)
    config = gs.SolverConfig(lam=0.1)
    cold = gs.glasso(A, config)
    hot_init = gs.glasso(A, gs.SolverConfig(lam=0.3)).precision
    warm = gs.glasso(A, config, init=hot_init)
    assert warm.converged
    assert np.abs(warm.precision - cold.precision).max() <= 10 * config.kkt_tol


def test_rejects_non_pd_warm_start():
    # block diagonal at this penalty, with the indefinite part of the warm
    # start between two blocks: the full matrix is checked, not each block
    A = np.diag([1.0, 2.0, 3.0])
    init = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    with pytest.raises(SingularInputError, match="warm start"):
        gs.glasso(A, gs.SolverConfig(lam=0.1), init=init)
    with pytest.raises(InvalidInputError, match="warm start"):
        gs.glasso(A, gs.SolverConfig(lam=0.1), init=np.eye(2))


def test_rejects_non_psd_input():
    A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(InvalidInputError, match="positive semidefinite"):
        gs.glasso(A, gs.SolverConfig(lam=0.1))
    # The gate allows a smallest eigenvalue down to -1e-8 * max(1, max|A_ij|),
    # so an exactly singular sample covariance (n < d) passes.
    rng = np.random.default_rng(22)
    for factor in (1.0, 1e3):
        singular = factor * random_covariance(rng, 8, n=4)
        values, vectors = np.linalg.eigh(singular)
        scale = max(1.0, np.abs(singular).max())
        null = np.outer(vectors[:, 0], vectors[:, 0])
        for relative, accepted in ((None, True), (-1e-9, True), (-1e-7, False)):
            A = singular
            if relative is not None:
                A = singular + (relative * scale - values[0]) * null
                assert np.linalg.eigvalsh(A)[0] == pytest.approx(relative * scale, rel=1e-3)
            config = gs.SolverConfig(lam=0.1 * gs.max_offdiag_abs(A))
            if accepted:
                assert gs.glasso(A, config).converged
            else:
                with pytest.raises(InvalidInputError, match="positive semidefinite"):
                    gs.glasso(A, config)


def test_zero_penalty_on_singular_input_fails():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((3, 5))  # rank <= 3
    A = gs.empirical_covariance(X)
    with pytest.raises(SingularInputError):
        gs.glasso(A, gs.SolverConfig(lam=0.0))


def test_zero_variance_column_is_regularized_with_penalty():
    rng = np.random.default_rng(24)
    X = rng.standard_normal((30, 3))
    X[:, 1] = 4.2
    A = gs.empirical_covariance(X)
    result = gs.glasso(A, gs.SolverConfig(lam=0.2))
    assert result.converged
    assert result.precision[1, 1] == pytest.approx(1.0 / 0.2, rel=1e-9)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        gs.SolverConfig(lam=-0.1)
    for kkt_tol in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="kkt_tol must be finite and positive"):
            gs.SolverConfig(lam=0.1, kkt_tol=kkt_tol)
    with pytest.raises(InvalidInputError):
        gs.SolverConfig(lam=0.1, max_sweeps=0)
    for zero_tol in (-1e-8, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="zero_tol must be finite and nonnegative"):
            gs.SolverConfig(lam=0.1, zero_tol=zero_tol)
    assert gs.SolverConfig(lam=0.1).zero_tol == gs.DEFAULT_ZERO_TOL


def test_objective_requires_positive_definite_precision():
    config = gs.SolverConfig(lam=0.1)
    K = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularInputError):
        gs.objective_value(K, np.eye(2), config)
    with pytest.raises(SingularInputError):
        gs.kkt_residual(K, np.eye(2), config)


def test_certificate_rejects_an_indefinite_iterate_whose_residual_passes():
    # K is symmetric and invertible but indefinite, and A = K^-1 makes its
    # residual 0 at lambda = 0: only the Cholesky gate can reject it, and the
    # (None, None, inf) it then returns keeps the sweeps going.
    K = np.array([[1.0, 2.0], [2.0, 1.0]])
    A = np.linalg.inv(K)
    config = gs.SolverConfig(lam=0.0)
    assert solver._subgradient_residual(K, np.linalg.inv(K), A, 0.0, True) <= config.kkt_tol
    inverse, factor, resid = solver._certificate(K, A, config)
    assert inverse is None and factor is None
    assert resid == float("inf")


def test_max_sweeps_exhaustion_reports_not_converged():
    rng = np.random.default_rng(25)
    A = random_covariance(rng, 12)
    config = gs.SolverConfig(lam=1e-4, max_sweeps=1, kkt_tol=1e-12)
    with pytest.warns(RuntimeWarning, match="did not converge"):
        result = gs.glasso(A, config)
    assert not result.converged
    assert result.sweeps_used == 1


def test_zero_penalty_failing_certificate_warns_once():
    A = random_covariance(np.random.default_rng(30), 5)
    config = gs.SolverConfig(lam=0.0, kkt_tol=1e-300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = gs.glasso(A, config)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and "did not converge" in messages[0]
    assert not result.converged
    assert result.kkt_residual > config.kkt_tol
    assert result.sweeps_used == 0


def test_failing_certificate_warning_reports_sweeps_used():
    A = random_covariance(np.random.default_rng(31), 5)
    for config, sweeps in (
        (gs.SolverConfig(lam=0.0, kkt_tol=1e-300), 0),
        (gs.SolverConfig(lam=1e-4, max_sweeps=1, kkt_tol=1e-300), 1),
    ):
        with pytest.warns(RuntimeWarning, match="did not converge") as caught:
            result = gs.glasso(A, config)
        assert result.sweeps_used == sweeps
        assert f"did not converge in {sweeps} sweeps " in str(caught[0].message)


def _lasso_objective(Q, b, lam, beta):
    return 0.5 * float(beta @ Q @ beta) - float(b @ beta) + lam * float(np.abs(beta).sum())


def _lasso_kkt_residual(Q, b, lam, beta, free=True):
    """Max-norm subgradient violation of the lasso over the free coordinates."""
    grad = Q @ beta - b
    violation = np.where(
        beta == 0.0,
        np.maximum(np.abs(grad) - lam, 0.0),
        np.abs(grad + lam * np.sign(beta)),
    )
    return float(violation.max(initial=0.0, where=free))


def _assert_kernel_optimal(Q, b, lam, start, free=True, tol=1e-9):
    """The kernel's answer is optimal beside the scalar CD oracle run to 1e-14.

    Returns the kernel's coefficients.
    """
    beta, oracle = start.copy(), start.copy()
    product = _feature_sign(Q, b, lam, beta, tol, free)
    lasso_gram_cd_reference(Q, b, lam, oracle, 100_000, 1e-14, free)
    best = _lasso_objective(Q, b, lam, oracle)
    scale = max(1.0, abs(best))
    assert _lasso_objective(Q, b, lam, beta) <= best + 1e-12 * scale
    assert _lasso_kkt_residual(Q, b, lam, beta, free) <= tol
    masked = ~np.broadcast_to(free, beta.shape)
    assert np.all(beta[masked] == 0.0) and not np.signbit(beta[masked]).any()
    exact = Q @ beta
    assert np.abs(product - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    return beta


def test_kernel_optimal_against_scalar_oracle():
    rng = np.random.default_rng(26)
    for trial in range(90):
        m = int(rng.integers(1, 25))
        Q = random_covariance(rng, m) + 0.1 * np.eye(m)
        b = rng.standard_normal(m)
        lam = float(rng.uniform(0.0, 1.0))
        start = np.zeros(m) if trial % 2 else rng.standard_normal(m) * (rng.random(m) < 0.5)
        free = True
        if trial % 3 == 2:
            # a masked coordinate starts at zero, as in a column update
            free = rng.random(m) < 0.7
            start[~free] = 0.0
        _assert_kernel_optimal(Q, b, lam, start, free)


def test_kernel_edge_cases_optimal_against_scalar_oracle():
    rng = np.random.default_rng(27)
    Q1 = np.array([[2.5]])
    for b1 in (-1.0, 0.2, 3.0):
        for start in (0.0, -0.7):
            _assert_kernel_optimal(Q1, np.array([b1]), 0.5, np.array([start]))
    # One- and two-coordinate active sets take the closed forms, down to a
    # pair of condition number 2000.
    for corr in (0.0, 0.6, -0.95, 0.999):
        Q2 = np.array([[1.0, corr], [corr, 1.0]]) * rng.uniform(0.1, 10.0)
        for _ in range(10):
            start = rng.standard_normal(2) * (rng.random(2) < 0.7)
            _assert_kernel_optimal(Q2, rng.standard_normal(2), rng.uniform(0.0, 0.5), start)
    for _ in range(5):
        Q = random_covariance(rng, 12) + 0.1 * np.eye(12)
        b = rng.standard_normal(12)
        # every coefficient is driven to zero from a dense warm start
        beta = _assert_kernel_optimal(Q, b, np.abs(b).max(), rng.standard_normal(12))
        assert np.all(beta == 0.0)
        beta = _assert_kernel_optimal(Q, b, 10.0 * np.abs(b).max(), rng.standard_normal(12))
        assert np.all(beta == 0.0)


def test_kernel_masked_coordinate_stays_zero_and_out_of_residual():
    rng = np.random.default_rng(31)
    m, out = 10, 4
    Q = random_covariance(rng, m) + 0.1 * np.eye(m)
    b = 0.1 * rng.standard_normal(m)
    b[out] = 50.0  # |g - b| at the masked coordinate stays far above lam
    free = np.arange(m) != out
    beta = _assert_kernel_optimal(Q, b, 0.05, np.zeros(m), free, tol=1e-10)
    assert abs((Q @ beta - b)[out]) > 40.0
    # the free coordinates solve the lasso with the masked one removed
    rest = np.ix_(free, free)
    alone = _assert_kernel_optimal(Q[rest], b[free], 0.05, np.zeros(m - 1), tol=1e-10)
    assert np.array_equal(beta[free] != 0.0, alone != 0.0)
    assert np.abs(beta[free] - alone).max() <= 1e-9


def test_kernel_zero_coordinate_violating_after_a_step_enters():
    # Coordinate 1 satisfies its condition at the start (|0 - b_1| <= lam)
    # and violates it once coordinate 0 has entered.
    Q = np.array([[1.0, 0.5], [0.5, 1.0]])
    b = np.array([2.0, -0.3])
    lam = 0.4
    beta = _assert_kernel_optimal(Q, b, lam, np.zeros(2), tol=1e-12)
    assert beta[0] > 0.0 > beta[1]
    assert np.allclose(beta, np.linalg.solve(Q, b - lam * np.array([1.0, -1.0])))


def test_kernel_wrong_warm_start_signs_take_a_zero_crossing(monkeypatch):
    Q = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    b = np.array([0.05, -0.8, 0.05])
    # Both nonzero signs are wrong. Solving on them sends coordinate 0 past
    # zero, where its optimum lies since |b_0| < lam.
    start = np.array([-0.5, 0.2, 0.0])
    taken = []

    def recording(*args):
        point = segment_search(*args)
        taken.append(point)
        return point

    segment_search = solver._segment_search
    monkeypatch.setattr(solver, "_segment_search", recording)
    beta = _assert_kernel_optimal(Q, b, 0.1, start, tol=1e-12)
    assert taken and any(np.any(point == 0.0) for point in taken)
    oracle = start.copy()
    lasso_gram_cd_reference(Q, b, 0.1, oracle, 100_000, 1e-14)
    assert np.array_equal(np.sign(beta), np.sign(oracle))
    assert np.abs(beta - oracle).max() <= 1e-12


def test_kernel_step_cap_returns_and_glasso_reports_not_converged(monkeypatch):
    rng = np.random.default_rng(40)
    Q = random_covariance(rng, 8) + 0.1 * np.eye(8)
    b = rng.standard_normal(8)
    monkeypatch.setattr(solver, "_MAX_STEPS", 1)
    beta = rng.standard_normal(8)
    product = _feature_sign(Q, b, 0.01, beta, 1e-9)
    assert np.abs(product - Q @ beta).max() <= 1e-12 * np.abs(Q @ beta).max()
    assert _lasso_kkt_residual(Q, b, 0.01, beta) > 1e-9

    A = random_covariance(rng, 8)
    config = gs.SolverConfig(lam=0.05 * gs.max_offdiag_abs(A), max_sweeps=20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = gs.glasso(A, config)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and "did not converge in 20 sweeps" in messages[0]
    assert not result.converged and result.sweeps_used == 20


def _failing_solve(monkeypatch, failures):
    """Make the first ``failures`` calls of np.linalg.solve raise LinAlgError."""
    solve = np.linalg.solve
    calls = []

    def flaky(*args):
        calls.append(None)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", flaky)
    return calls


def test_kernel_singular_active_block_raises_singular_input(monkeypatch):
    # One and two coordinates are solved in closed form: a pivot or a
    # determinant that is not positive is singular.
    for Q in (np.zeros((1, 1)), np.ones((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])):
        m = Q.shape[0]
        with pytest.raises(SingularInputError, match="singular on a column's active set"):
            _feature_sign(Q, np.ones(m), 0.1, np.ones(m), 1e-9)
    _failing_solve(monkeypatch, 1)
    Q = np.eye(3)
    with pytest.raises(SingularInputError, match="singular on a column's active set"):
        _feature_sign(Q, np.ones(3), 0.1, np.ones(3), 1e-9)


def test_small_active_systems_match_lu_solve():
    rng = np.random.default_rng(42)
    eps = np.finfo(float).eps
    for m in (1, 2):
        for _ in range(300):
            block = random_covariance(rng, m, n=m + 2) + 10.0 ** -rng.integers(0, 8) * np.eye(m)
            block *= 10.0 ** rng.uniform(-3, 3)
            rhs = rng.standard_normal(m)
            x = solver._solve_active(block, rhs)
            expected = np.linalg.solve(block, rhs)
            bound = 16 * eps * np.linalg.cond(block) * np.abs(expected).max()
            assert np.abs(x - expected).max() <= bound


def test_singular_active_block_on_warm_start_falls_back_to_cold_start(monkeypatch):
    A = random_covariance(np.random.default_rng(41), 6)
    config = gs.SolverConfig(lam=0.1 * gs.max_offdiag_abs(A))
    init = gs.glasso(A, gs.SolverConfig(lam=0.5 * gs.max_offdiag_abs(A))).precision
    cold = gs.glasso(A, config)
    calls = _failing_solve(monkeypatch, 1)
    warm = gs.glasso(A, config, init=init)
    assert len(calls) > 1
    assert warm.converged
    assert np.array_equal(warm.precision, cold.precision)


def test_warm_started_grid_path_at_d40_matches_cold_supports():
    truth = gs.generate_precision(40, 0.08, seed=32)
    A = gs.empirical_covariance(gs.sample_gaussian(truth, 150, seed=33))
    warm = None
    for lam in gs.lambda_grid(A, 10).values:
        config = gs.SolverConfig(lam=float(lam))
        result = gs.glasso(A, config, init=warm)
        warm = result.precision
        assert result.converged
        assert result.kkt_residual == gs.kkt_residual(result.precision, A, config)
        cold = gs.glasso(A, config)
        assert np.array_equal(_support(result.precision), _support(cold.precision))
    assert result.block_sizes == (40,)


def _thresholded_component_sizes(A, lam):
    """Component sizes of {|A_ij| > lam} by depth-first search, largest first."""
    d = A.shape[0]
    seen = [False] * d
    sizes = []
    for start in range(d):
        if seen[start]:
            continue
        seen[start], stack, size = True, [start], 0
        while stack:
            i = stack.pop()
            size += 1
            for j in range(d):
                if j != i and not seen[j] and abs(A[i, j]) > lam:
                    seen[j] = True
                    stack.append(j)
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def test_block_sizes_are_the_thresholded_components():
    rng = np.random.default_rng(34)
    sizes = (1, 4, 1, 6, 2, 1)
    blocks = [random_covariance(rng, k, n=3 * k + 2) + 0.5 * np.eye(k) for k in sizes]
    order = rng.permutation(sum(sizes))
    A = block_diag(*blocks)[np.ix_(order, order)]
    assert gs.glasso(A, gs.SolverConfig(lam=0.0)).block_sizes == (15,)
    assert gs.glasso(A, gs.SolverConfig(lam=1e-9)).block_sizes == (6, 4, 2, 1, 1, 1)
    top = gs.max_offdiag_abs(A)
    assert gs.glasso(A, gs.SolverConfig(lam=top)).block_sizes == (1,) * 15
    for fraction in (0.1, 0.3, 0.5, 0.7):
        lam = fraction * top
        config = gs.SolverConfig(lam=lam)
        assert gs.glasso(A, config).block_sizes == _thresholded_component_sizes(A, lam)


def _assert_components_match_scipy(adjacency):
    n_blocks, expected = connected_components(adjacency, directed=False)
    labels = _components(adjacency)
    assert np.array_equal(labels, expected)
    assert labels.max() + 1 == n_blocks


def test_components_match_scipy_on_random_graphs():
    rng = np.random.default_rng(35)
    for _ in range(300):
        d = int(rng.integers(1, 40))
        upper = np.triu(rng.random((d, d)) < rng.uniform(0.0, 0.3), k=1)
        _assert_components_match_scipy(upper | upper.T)


def test_components_match_scipy_on_extreme_graphs():
    rng = np.random.default_rng(36)
    for d in (1, 2, 7, 60):
        _assert_components_match_scipy(np.zeros((d, d), dtype=bool))
        _assert_components_match_scipy(np.ones((d, d), dtype=bool))
        # A path has the largest diameter, in index order and shuffled.
        for order in (np.arange(d), rng.permutation(d)):
            path = np.zeros((d, d), dtype=bool)
            path[order[:-1], order[1:]] = True
            _assert_components_match_scipy(path | path.T)


def test_block_sizes_match_scipy_components():
    rng = np.random.default_rng(37)
    for _ in range(20):
        d = int(rng.integers(2, 16))
        A = random_covariance(rng, d, n=int(rng.integers(2, 3 * d)))
        lam = rng.uniform(0.05, 0.95) * gs.max_offdiag_abs(A)
        _, labels = connected_components(np.abs(A) > lam, directed=False)
        expected = tuple(sorted(np.bincount(labels).tolist(), reverse=True))
        assert gs.glasso(A, gs.SolverConfig(lam=lam)).block_sizes == expected


def test_pd_inverse_matches_numpy_and_cholesky_inverses():
    rng = np.random.default_rng(38)
    for d in (1, 2, 5, 20, 60):
        A = random_covariance(rng, d, n=3 * d + 2)
        inverse = _pd_inverse(A, "not PD")
        assert np.array_equal(inverse, inverse.T)
        cholesky_inverse = cho_solve((np.linalg.cholesky(A), True), np.eye(d))
        for oracle in (np.linalg.inv(A), cholesky_inverse):
            assert np.abs(inverse - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_pd_inverse_rejects_non_pd_input_with_given_message():
    rank_two = random_covariance(np.random.default_rng(39), 5, n=3)
    for matrix in (rank_two - 0.01 * np.eye(5), np.array([[1.0, 2.0], [2.0, 1.0]]), -np.eye(3)):
        with pytest.raises(SingularInputError, match="^covariance is not PD$"):
            _pd_inverse(matrix, "covariance is not PD")


def _random_psd_problem(seed, d, n, fraction):
    rng = np.random.default_rng(seed)
    A = random_covariance(rng, d, n=n)
    return A, fraction * gs.max_offdiag_abs(A)


def _support(precision):
    return np.abs(precision) > gs.DEFAULT_ZERO_TOL


@property_settings
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 9),
    n=st.integers(2, 30),
    fraction=st.floats(0.05, 0.95),
    penalize_diagonal=st.booleans(),
)
def test_screened_solve_agrees_with_unscreened_block_solve(
    seed, d, n, fraction, penalize_diagonal
):
    A, lam = _random_psd_problem(seed, d, n, fraction)
    config = gs.SolverConfig(lam=lam, penalize_diagonal=penalize_diagonal)
    screened = gs.glasso(A, config)
    unscreened, _ = _glasso_block(A, config, None)
    assert screened.converged
    assert np.array_equal(_support(screened.precision), _support(unscreened))
    assert screened.kkt_residual == gs.kkt_residual(screened.precision, A, config)
    assert screened.kkt_residual <= config.kkt_tol
    assert gs.kkt_residual(unscreened, A, config) <= config.kkt_tol


@pytest.mark.parametrize("penalize_diagonal", [True, False])
def test_two_variable_component_closed_form_matches_block_solve(penalize_diagonal):
    rng = np.random.default_rng(43)
    for _ in range(100):
        A = random_covariance(rng, 2, n=int(rng.integers(2, 30)))
        A *= 10.0 ** rng.uniform(-2, 2)
        config = gs.SolverConfig(
            lam=rng.uniform(0.05, 0.95) * gs.max_offdiag_abs(A),
            penalize_diagonal=penalize_diagonal,
        )
        result = gs.glasso(A, config)
        assert result.block_sizes == (2,) and result.sweeps_used == 0
        assert result.converged
        assert result.kkt_residual == gs.kkt_residual(result.precision, A, config)
        swept, sweeps = _glasso_block(A, config, None)
        assert sweeps >= 1
        assert np.abs(result.precision - swept).max() <= 1e-12 * np.abs(swept).max()
    # Just past PSD, inside the gate, a tiny penalty leaves no PD W; the
    # sweeps fail on the same pair.
    A = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
    config = gs.SolverConfig(lam=1e-10, penalize_diagonal=penalize_diagonal)
    with pytest.raises(SingularInputError, match="two-variable block is singular"):
        gs.glasso(A, config)
    with pytest.raises(SingularInputError):
        _glasso_block(A, config, None)


@pytest.mark.parametrize("penalize_diagonal", [True, False])
def test_block_diagonal_input_solves_each_block_alone(penalize_diagonal):
    rng = np.random.default_rng(28)
    sizes = (1, 4, 1, 6, 2, 1)
    blocks = [random_covariance(rng, k, n=3 * k + 2) + 0.5 * np.eye(k) for k in sizes]
    order = rng.permutation(sum(sizes))
    A = block_diag(*blocks)[np.ix_(order, order)]
    lam = 0.05
    config = gs.SolverConfig(lam=lam, penalize_diagonal=penalize_diagonal)
    result = gs.glasso(A, config)
    assert result.converged
    assert result.kkt_residual == gs.kkt_residual(result.precision, A, config)

    expected = np.zeros_like(A)
    sweeps = 0
    position = np.argsort(order)  # position[v] is the row of original variable v
    for first, k in zip(np.cumsum((0,) + sizes), sizes):
        idx = np.sort(position[first : first + k])
        if k == 1:
            expected[idx, idx] = 1.0 / (A[idx, idx] + (lam if penalize_diagonal else 0.0))
            continue
        alone = gs.glasso(A[np.ix_(idx, idx)], config)
        expected[np.ix_(idx, idx)] = alone.precision
        sweeps = max(sweeps, alone.sweeps_used)
    assert np.array_equal(result.precision, expected)
    assert result.sweeps_used == sweeps


@property_settings
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(3, 9),
    n=st.integers(2, 30),
    coarse=st.floats(0.3, 0.95),
    ratio=st.floats(0.2, 0.9),
)
def test_warm_start_from_coarser_penalty_on_path(seed, d, n, coarse, ratio):
    A, lam_coarse = _random_psd_problem(seed, d, n, coarse)
    config = gs.SolverConfig(lam=ratio * lam_coarse)
    init = gs.glasso(A, gs.SolverConfig(lam=lam_coarse)).precision
    warm = gs.glasso(A, config, init=init)
    cold = gs.glasso(A, config)
    assert warm.converged and cold.converged
    assert warm.kkt_residual == gs.kkt_residual(warm.precision, A, config)
    assert np.array_equal(_support(warm.precision), _support(cold.precision))
    # K = W^-1 can be large when n < d, so compare the better-conditioned W
    assert np.abs(warm.covariance - cold.covariance).max() <= 10 * config.kkt_tol


def test_nonconverging_block_reports_once():
    rng = np.random.default_rng(29)
    A = block_diag(random_covariance(rng, 10), np.eye(1), random_covariance(rng, 8))
    config = gs.SolverConfig(lam=1e-4, max_sweeps=1, kkt_tol=1e-12)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = gs.glasso(A, config)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1 and "did not converge" in messages[0]
    assert not result.converged
    assert result.sweeps_used == 1
    assert result.kkt_residual == gs.kkt_residual(result.precision, A, config)
    assert result.kkt_residual > config.kkt_tol


def test_cold_start_recovers_from_non_pd_precision_iterate():
    # n < d: after the first sweep the column-wise precision iterate has a
    # negative eigenvalue although the working covariance stays PD
    truth = gs.generate_precision(10, 0.05, seed=300)
    A = gs.empirical_covariance(gs.sample_gaussian(truth, 5, seed=400))
    config = gs.SolverConfig(lam=0.1 * gs.max_offdiag_abs(A))
    result = gs.glasso(A, config)
    assert result.converged
    assert gs.kkt_residual(result.precision, A, config) <= config.kkt_tol


def test_infeasible_warm_start_falls_back_to_cold_start():
    # n < d: the working covariance of the solution at the larger penalty
    # leaves the first column update without a PD solution at the smaller one
    A = random_covariance(np.random.default_rng(0), 4, n=2)
    coarse = gs.SolverConfig(lam=0.5 * gs.max_offdiag_abs(A))
    config = gs.SolverConfig(lam=0.21875 * coarse.lam)
    warm = gs.glasso(A, config, init=gs.glasso(A, coarse).precision)
    cold = gs.glasso(A, config)
    assert warm.converged
    assert np.array_equal(warm.precision, cold.precision)
