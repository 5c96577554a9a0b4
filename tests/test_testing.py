import math

import numpy as np
import pytest
from scipy.special import ndtr

import ggmselect as gs
from ggmselect import DegenerateCorrelationWarning, InvalidInputError, NotApplicableError
from ggmselect import core, testing

from helpers import random_correlated_data, random_covariance


def stepdown_oracle(pvals):
    """Independent O(m^2) evaluation of the step-down adjustment."""
    pvals = np.asarray(pvals, dtype=float)
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    adjusted = np.empty(m)
    for position, index in enumerate(order):
        best = 0.0
        for b in range(position + 1):
            candidate = min((m - b) * pvals[order[b]], 1.0)
            best = max(best, candidate)
        adjusted[index] = best
    return adjusted


def test_partial_correlations_identity():
    assert np.array_equal(gs.partial_correlations(np.eye(4)), np.eye(4))


def test_partial_correlations_d2_closed_form():
    for r in (-0.8, -0.2, 0.0, 0.35, 0.9):
        A = np.array([[1.0, r], [r, 1.0]])
        R = gs.partial_correlations(A)
        assert R[0, 1] == pytest.approx(r, abs=1e-12)
        assert R[0, 0] == 1.0 and R[1, 1] == 1.0


def test_partial_correlations_match_regression_residuals():
    rng = np.random.default_rng(60)
    X = random_correlated_data(rng, 50, 4, strength=0.4)
    X = X - X.mean(axis=0)
    A = gs.empirical_covariance(X)
    R = gs.partial_correlations(A)
    for i in range(4):
        for j in range(i + 1, 4):
            rest = [k for k in range(4) if k not in (i, j)]
            Z = X[:, rest]
            beta_i, *_ = np.linalg.lstsq(Z, X[:, i], rcond=None)
            beta_j, *_ = np.linalg.lstsq(Z, X[:, j], rcond=None)
            res_i = X[:, i] - Z @ beta_i
            res_j = X[:, j] - Z @ beta_j
            expected = float(
                res_i @ res_j / np.sqrt((res_i @ res_i) * (res_j @ res_j))
            )
            assert R[i, j] == pytest.approx(expected, abs=1e-10)


def test_partial_correlations_scaling_invariance():
    rng = np.random.default_rng(61)
    A = random_covariance(rng, 5)
    scale = np.diag(rng.uniform(0.1, 10.0, size=5))
    assert np.allclose(
        gs.partial_correlations(scale @ A @ scale),
        gs.partial_correlations(A),
        atol=1e-10,
    )


def test_partial_correlations_bounded():
    rng = np.random.default_rng(62)
    R = gs.partial_correlations(random_covariance(rng, 8))
    assert np.abs(R).max() <= 1.0 + 1e-12


def test_partial_correlations_singular_input():
    rng = np.random.default_rng(63)
    X = rng.standard_normal((3, 5))
    with pytest.raises(gs.SingularInputError):
        gs.partial_correlations(gs.empirical_covariance(X))


def test_pvalue_of_zero_correlation_is_one():
    assert np.all(gs.unadjusted_pvalues(np.eye(5), n=50) == 1.0)


def test_pvalue_quantile_inversion():
    n, d = 100, 4
    r = math.tanh(1.959964 / math.sqrt(n - d - 1))
    R = np.eye(d)
    R[0, 1] = R[1, 0] = r
    assert gs.unadjusted_pvalues(R, n)[0] == pytest.approx(0.05, abs=1e-6)


def test_pvalues_match_erfc_oracle():
    rng = np.random.default_rng(64)
    n, d = 200, 6
    R = gs.partial_correlations(random_covariance(rng, d, n=n))
    pvals = gs.unadjusted_pvalues(R, n)
    scale = math.sqrt(n - d - 1)
    rows, cols = np.triu_indices(d, k=1)
    for k, (i, j) in enumerate(zip(rows, cols)):
        z = abs(math.atanh(R[i, j]))
        expected = math.erfc(scale * z / math.sqrt(2.0))
        assert abs(pvals[k] - expected) <= 1e-12


def test_pvalues_match_scipy_normal_tail_oracle():
    # Partial correlations from 0 to 1 - 1e-15 push x = sqrt(n - d - 1)|z|
    # from 0 past the underflow of the tail near x = 38.6.
    d = 40
    m = d * (d - 1) // 2
    r = np.concatenate(
        [[0.0], np.linspace(1e-9, 0.999, m - 41), 1.0 - np.logspace(-3, -15, 40)]
    )
    r *= np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
    R = np.eye(d)
    rows, cols = np.triu_indices(d, k=1)
    R[rows, cols] = r
    R[cols, rows] = r
    smallest = 1.0
    for n in (d + 2, 100, 5000):
        pvals = gs.unadjusted_pvalues(R, n)
        expected = 2.0 * ndtr(-np.sqrt(n - d - 1) * np.abs(np.arctanh(r)))
        assert pvals[0] == 1.0
        tail = expected >= 1e-300
        np.testing.assert_allclose(pvals[tail], expected[tail], rtol=1e-12, atol=0.0)
        assert np.all(pvals[~tail] < 1e-299)
        smallest = min(smallest, expected[tail].min())
    assert smallest < 1e-290


def test_pvalues_not_applicable_when_sample_too_small():
    with pytest.raises(NotApplicableError):
        gs.unadjusted_pvalues(np.eye(4), n=5)
    rng = np.random.default_rng(65)
    with pytest.raises(NotApplicableError):
        gs.testing_select(gs.empirical_covariance(rng.standard_normal((11, 10))), 11, alpha=0.1)


def test_pvalues_reject_a_correlation_outside_the_unit_interval():
    R = np.eye(3)
    R[0, 1] = R[1, 0] = 1.0 + 1e-9
    with pytest.raises(InvalidInputError, match=r"partial correlations must lie in \[-1, 1\]"):
        gs.unadjusted_pvalues(R, n=50)


def test_degenerate_correlation_warns_and_zeroes():
    R = np.eye(3)
    R[0, 1] = R[1, 0] = 1.0
    with pytest.warns(DegenerateCorrelationWarning):
        pvals = gs.unadjusted_pvalues(R, n=50)
    assert pvals[0] == 0.0


def test_holm_hand_example():
    adjusted = gs.holm_adjust([0.01, 0.02, 0.5])
    assert np.allclose(adjusted, [0.03, 0.04, 0.5], atol=1e-15)


def test_holm_all_ones():
    assert np.all(gs.holm_adjust([1.0, 1.0, 1.0, 1.0]) == 1.0)


def test_holm_matches_stepdown_oracle_exactly():
    rng = np.random.default_rng(66)
    for _ in range(50):
        pvals = rng.uniform(0.0, 1.0, size=10)
        assert np.array_equal(gs.holm_adjust(pvals), stepdown_oracle(pvals))


def test_holm_permutation_equivariance():
    rng = np.random.default_rng(67)
    pvals = rng.uniform(0.0, 1.0, size=12)
    perm = rng.permutation(12)
    assert np.array_equal(gs.holm_adjust(pvals)[perm], gs.holm_adjust(pvals[perm]))


def test_holm_monotone_in_pvalue():
    rng = np.random.default_rng(68)
    pvals = rng.uniform(0.0, 1.0, size=15)
    adjusted = gs.holm_adjust(pvals)
    order = np.argsort(pvals)
    assert np.all(np.diff(adjusted[order]) >= 0)


def test_holm_ties_get_equal_adjustments():
    adjusted = gs.holm_adjust([0.05, 0.2, 0.2, 0.7])
    assert adjusted[1] == adjusted[2]


def test_adjusted_dominate_unadjusted():
    rng = np.random.default_rng(69)
    pvals = rng.uniform(0.0, 1.0, size=20)
    for method in ("holm", "bonferroni", "sidak"):
        adjusted = gs.adjust_pvalues(pvals, method)
        assert np.all(adjusted >= pvals)
        assert np.all(adjusted <= 1.0)


def test_sidak_does_not_underflow_tiny_pvalues():
    pvals = np.array([1e-300, 1e-18, 0.0, 1.0])
    adjusted = gs.sidak_adjust(pvals)
    assert np.all(adjusted >= pvals)
    assert adjusted[3] == 1.0
    assert adjusted[0] == pytest.approx(4e-300, rel=1e-10)


def test_bonferroni_dominates_holm():
    rng = np.random.default_rng(70)
    for _ in range(20):
        pvals = rng.uniform(0.0, 1.0, size=8)
        assert np.all(gs.bonferroni_adjust(pvals) >= gs.holm_adjust(pvals))


def test_adjustment_input_validation():
    with pytest.raises(InvalidInputError):
        gs.holm_adjust([0.5, 1.5])
    with pytest.raises(InvalidInputError):
        gs.holm_adjust([-0.1])
    with pytest.raises(InvalidInputError):
        gs.adjust_pvalues([0.1], "unknown")


def test_testing_select_bonferroni_subset_of_holm():
    truth = gs.generate_precision(8, 0.2, seed=71)
    data = gs.sample_gaussian(truth, 150, seed=72)
    A = gs.empirical_covariance(data)
    holm = gs.testing_select(A, data.n, alpha=0.2, method="holm")
    bonferroni = gs.testing_select(A, data.n, alpha=0.2, method="bonferroni")
    assert bonferroni.edges.edges <= holm.edges.edges


def test_testing_select_single_hypothesis_methods_agree():
    rng = np.random.default_rng(73)
    A = gs.empirical_covariance(random_correlated_data(rng, 60, 2, strength=0.5))
    decisions = {
        method: gs.testing_select(A, 60, alpha=0.05, method=method).edges.edges
        for method in ("holm", "bonferroni", "sidak")
    }
    values = list(decisions.values())
    assert values[0] == values[1] == values[2]
    # with one hypothesis the adjusted value equals the unadjusted one
    pmatrix = gs.testing_select(A, 60, alpha=0.05).diagnostics["pvalues"]
    assert pmatrix.adjusted[0] == pmatrix.unadjusted[0]


def test_testing_select_reports_no_precision_matrix():
    rng = np.random.default_rng(74)
    A = gs.empirical_covariance(rng.standard_normal((80, 5)))
    result = gs.testing_select(A, 80, alpha=0.1)
    assert result.precision is None
    assert result.lam is None
    assert result.method == "holm"


def test_testing_select_matches_its_steps_on_the_callers_covariance(monkeypatch):
    data = gs.sample_gaussian(gs.generate_precision(8, 0.2, seed=76), 150, seed=77)
    A = gs.empirical_covariance(data, center=False)
    pvalues = gs.unadjusted_pvalues(gs.partial_correlations(A), data.n)
    adjusted = gs.adjust_pvalues(pvalues, "holm")
    monkeypatch.setattr(core, "_cov", lambda *args, **kwargs: pytest.fail("formed a covariance"))
    result = gs.testing_select(A, data.n, alpha=0.2)
    assert np.array_equal(result.diagnostics["pvalues"].adjusted, adjusted)


def test_testing_select_checks_the_covariance_once(monkeypatch):
    A = gs.empirical_covariance(np.random.default_rng(78).standard_normal((40, 4)))
    checked = []

    def counting_check(matrix, name="matrix"):
        checked.append(name)
        return core.check_square_symmetric(matrix, name)

    monkeypatch.setattr(testing, "check_square_symmetric", counting_check)
    gs.testing_select(A, 40, alpha=0.1)
    assert checked.count("covariance matrix") == 1


@pytest.mark.parametrize("n", [2, 5])
def test_testing_select_rejects_a_single_variable(n):
    # n = 2 would fail the n > d + 1 rule: the d rule comes first.
    with pytest.raises(InvalidInputError, match=r"testing needs d >= 2 variables, got d=1"):
        gs.testing_select(np.eye(1), n, 0.1)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_testing_select_rejects_alpha_outside_the_unit_interval(alpha):
    A = gs.empirical_covariance(np.random.default_rng(75).standard_normal((40, 4)))
    with pytest.raises(InvalidInputError, match=r"alpha must be in \(0, 1\)"):
        gs.testing_select(A, 40, alpha=alpha)


def test_rejections_keep_the_pairs_at_or_below_alpha():
    # triu_indices(4, 1) order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    adjusted = np.array([0.05, 0.2, 0.049, 1.0, 0.051, 0.0])
    edges = testing._rejections(adjusted, 4, 0.05)
    assert edges == gs.EdgeSet(4, frozenset({(0, 1), (0, 3), (2, 3)}))
    assert testing._rejections(adjusted, 4, 1e-3) == gs.EdgeSet(4, frozenset({(2, 3)}))


def test_pvalue_matrix_validation():
    with pytest.raises(InvalidInputError):
        gs.PValueMatrix(3, np.array([0.1, 0.2]), np.array([0.1, 0.2]))  # wrong length
    with pytest.raises(InvalidInputError):
        gs.PValueMatrix(3, np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2]))
    with pytest.raises(InvalidInputError):
        gs.PValueMatrix(3, np.array([0.1, 0.2, 1.5]), np.array([0.1, 0.2, 1.5]))
    with pytest.raises(InvalidInputError):
        gs.PValueMatrix(3, np.array([0.3, 0.3, 0.3]), np.array([0.2, 0.4, 0.4]))
    pmatrix = gs.PValueMatrix(3, np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.4, 0.3]))
    matrix = pmatrix.as_matrix()
    assert np.isnan(matrix[0, 0])
    assert matrix[0, 1] == 0.3 and matrix[1, 0] == 0.3
