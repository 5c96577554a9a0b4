import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

import ggmselect as gs
from ggmselect import InvalidInputError, SingularInputError
from ggmselect.solver import _glasso_block, _lasso_gram_cd

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
    with pytest.raises(InvalidInputError):
        gs.SolverConfig(lam=0.1, kkt_tol=0.0)
    with pytest.raises(InvalidInputError):
        gs.SolverConfig(lam=0.1, max_sweeps=0)


def test_objective_requires_positive_definite_precision():
    config = gs.SolverConfig(lam=0.1)
    K = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SingularInputError):
        gs.objective_value(K, np.eye(2), config)
    with pytest.raises(SingularInputError):
        gs.kkt_residual(K, np.eye(2), config)


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


def _assert_kernel_matches_reference(Q, b, lam, beta, max_passes, tol=1e-9):
    expected_beta, beta = beta.copy(), beta.copy()
    expected = lasso_gram_cd_reference(Q, b, lam, expected_beta, max_passes, tol)
    assert _lasso_gram_cd(Q, b, lam, beta, max_passes, tol) == expected
    assert np.array_equal(beta, expected_beta)


def test_cd_kernel_matches_scalar_reference():
    rng = np.random.default_rng(26)
    for trial in range(60):
        m = int(rng.integers(1, 25))
        Q = random_covariance(rng, m) + 0.1 * np.eye(m)
        b = rng.standard_normal(m)
        lam = float(rng.uniform(0.0, 1.0))
        start = np.zeros(m) if trial % 2 else rng.standard_normal(m) * (rng.random(m) < 0.5)
        _assert_kernel_matches_reference(Q, b, lam, start, max_passes=1000)


def test_cd_kernel_edge_cases_match_scalar_reference():
    rng = np.random.default_rng(27)
    Q1 = np.array([[2.5]])
    for b1 in (-1.0, 0.2, 3.0):
        for start in (0.0, -0.7):
            _assert_kernel_matches_reference(Q1, np.array([b1]), 0.5, np.array([start]), 1000)
    Q = random_covariance(rng, 12) + 0.1 * np.eye(12)
    b = rng.standard_normal(12)
    start = rng.standard_normal(12)
    # every coefficient is driven to zero from a dense warm start
    _assert_kernel_matches_reference(Q, b, 10.0 * np.abs(b).max(), start, 1000)
    # the pass cap stops the loop before the tolerance is met
    for cap in (1, 2, 3):
        expected = lasso_gram_cd_reference(Q, b, 0.01, start.copy(), cap, 1e-15)
        assert expected[0] == cap
        _assert_kernel_matches_reference(Q, b, 0.01, start, cap, 1e-15)


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
