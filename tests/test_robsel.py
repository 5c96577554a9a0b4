import math
import tracemalloc

import numpy as np
import pytest

import ggmselect as gs
from ggmselect import InvalidInputError, SingularInputError

from ggmselect import core, robsel
from ggmselect.core import _cov

from helpers import bootstrap_rwp_reference, random_covariance


def test_rwp_identical_matrices():
    rng = np.random.default_rng(30)
    A = random_covariance(rng, 4)
    assert gs.rwp(A, A) == 0.0


def test_rwp_identity_vs_zero():
    assert gs.rwp(np.eye(3), np.zeros((3, 3))) == 1.0


def test_rwp_matches_exhaustive_scan():
    rng = np.random.default_rng(31)
    A = random_covariance(rng, 5)
    K = random_covariance(rng, 5)
    expected = max(abs(A[i, j] - K[i, j]) for i in range(5) for j in range(5))
    assert gs.rwp(A, K) == expected


def test_rwp_dimension_mismatch():
    with pytest.raises(InvalidInputError, match="mismatch"):
        gs.rwp(np.eye(3), np.eye(4))


def test_order_statistic_rank_formula():
    # ceil(201 * 0.01) = 3 and ceil(201 * 0.1) = 21
    assert gs.order_statistic_rank(200, 0.99) == 3
    assert gs.order_statistic_rank(200, 0.9) == 21
    # exact-integer targets are not pushed up by float rounding
    assert gs.order_statistic_rank(199, 0.9) == 20
    # clamping at both ends
    assert gs.order_statistic_rank(10, 0.001) == 10
    assert gs.order_statistic_rank(10, 0.999) == 1


def test_order_statistic_rank_brute_force():
    for B in (1, 7, 50, 200):
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 0.99):
            target = (B + 1) * (1 - alpha)
            expected = math.ceil(round(target, 9) - 1e-12)
            expected = min(max(expected, 1), B)
            assert gs.order_statistic_rank(B, alpha) == expected


def test_identical_rows_give_zero_lambda():
    data = np.tile([1.0, -2.0, 0.5], (20, 1))
    result = gs.robsel_lambda(data, gs.RobselConfig(alpha=0.5, B=50, seed=1))
    assert result.lam == 0.0
    assert np.all(result.rwp_samples == 0.0)


def test_same_seed_reproduces_lambda_bitwise():
    rng = np.random.default_rng(32)
    data = rng.standard_normal((100, 5))
    config = gs.RobselConfig(alpha=0.9, B=200, seed=7)
    first = gs.robsel_lambda(data, config)
    second = gs.robsel_lambda(data, config)
    assert first.lam == second.lam
    assert np.array_equal(first.rwp_samples, second.rwp_samples)
    assert first.order_index == gs.order_statistic_rank(200, 0.9) - 1


def test_parallel_bootstrap_is_bit_identical():
    rng = np.random.default_rng(33)
    data = rng.standard_normal((80, 4))
    config = gs.RobselConfig(alpha=0.1, B=64, seed=9)
    serial = gs.robsel_lambda(data, config, threads=1)
    parallel = gs.robsel_lambda(data, config, threads=4)
    assert np.array_equal(serial.rwp_samples, parallel.rwp_samples)
    assert serial.lam == parallel.lam


def test_lambda_nonincreasing_in_alpha():
    rng = np.random.default_rng(34)
    data = rng.standard_normal((60, 4))
    lams = [
        gs.robsel_lambda(data, gs.RobselConfig(alpha=a, B=99, seed=3)).lam
        for a in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.99)
    ]
    assert all(a >= b for a, b in zip(lams, lams[1:]))


def test_scale_equivariance_power_of_two_exact():
    rng = np.random.default_rng(35)
    data = rng.standard_normal((50, 4))
    config = gs.RobselConfig(alpha=0.2, B=80, seed=5)
    base = gs.robsel_lambda(data, config)
    scaled = gs.robsel_lambda(2.0 * data, config)
    assert scaled.lam == 4.0 * base.lam

    A = gs.empirical_covariance(data)
    edges = gs.edges_from_precision(
        gs.glasso(A, gs.SolverConfig(lam=base.lam)).precision
    )
    edges_scaled = gs.edges_from_precision(
        gs.glasso(4.0 * A, gs.SolverConfig(lam=scaled.lam)).precision
    )
    assert edges.edges == edges_scaled.edges


def test_scale_equivariance_general_factor():
    rng = np.random.default_rng(36)
    data = rng.standard_normal((50, 3))
    config = gs.RobselConfig(alpha=0.3, B=60, seed=6)
    base = gs.robsel_lambda(data, config)
    scaled = gs.robsel_lambda(1.7 * data, config)
    assert scaled.lam == pytest.approx(1.7**2 * base.lam, rel=1e-12)


def test_uncentered_bootstrap_uses_raw_second_moments():
    # With center=False, A is the raw second moment, and so is every
    # replicate; the oracle redraws each resample from its own stream.
    rng = np.random.default_rng(38)
    n, d, seed = 60, 4, 11
    data = rng.standard_normal((n, d)) + 1.0
    A = data.T @ data / n
    oracle = []
    for b in range(1, 31):
        sample = data[np.random.default_rng((seed, b)).integers(0, n, n)]
        oracle.append(np.abs(sample.T @ sample / n - A).max())
    config = gs.RobselConfig(alpha=0.2, B=30, seed=seed)
    samples = gs.bootstrap_rwp_samples(data, config, center=False)
    np.testing.assert_allclose(samples, np.sort(oracle), rtol=1e-12, atol=0)


# Replicates are formed the way A is: centered at their own mean, or not.
CENTERS = pytest.mark.parametrize(
    "center", [True, False], ids=["True-replicate", "False-replicate"]
)
SHAPES = pytest.mark.parametrize(
    "n,d,B",
    [
        (60, 4, 250),  # more replicates than rows; uint8 counts
        (40, 5, 7),  # few replicates
        (6, 9, 30),  # n < d
        (300, 30, 120),  # several pair tiles and row chunks; uint16 counts
        (70000, 2, 3),  # uint32 counts
    ],
)


@CENTERS
@SHAPES
def test_bootstrap_matches_per_replicate_reference(n, d, B, center):
    rng = np.random.default_rng(39)
    data = rng.exponential(1.0, size=(n, d)) + 2.0
    config = gs.RobselConfig(alpha=0.2, B=B, seed=12)
    samples = gs.bootstrap_rwp_samples(data, config, center=center)
    expected = bootstrap_rwp_reference(data, config, center=center)
    assert samples.shape == (B,)
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=0)


@SHAPES
def test_full_sample_mean_centering_is_center_false_on_centered_data(n, d, B):
    # Replicates centered at the mean of the full sample, in place of their
    # own, are the raw second moments of the data centered at its mean.
    rng = np.random.default_rng(39)
    data = rng.exponential(1.0, size=(n, d)) + 2.0
    config = gs.RobselConfig(alpha=0.2, B=B, seed=12)
    samples = gs.bootstrap_rwp_samples(data - data.mean(axis=0), config, center=False)
    expected = bootstrap_rwp_reference(data, config, full_sample_mean=True)
    np.testing.assert_allclose(samples, expected, rtol=1e-12, atol=0)


@CENTERS
def test_bootstrap_block_of_a_single_variable(center):
    # Data matrices need two columns, so the one-pair tile is checked on the
    # tile function itself.
    rng = np.random.default_rng(40)
    data = rng.standard_normal((50, 1)) + 3.0
    config = gs.RobselConfig(alpha=0.2, B=40, seed=13)
    X = data - data.mean(axis=0) if center else data
    counts, means = robsel._resamples(X, config.B, config.seed, center)
    pair = np.zeros(1, dtype=int)
    samples = robsel._tile_maxima(X, _cov(data, center), counts, means, pair, pair)
    expected = bootstrap_rwp_reference(data, config, center=center)
    np.testing.assert_allclose(np.sort(samples), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,dtype", [(255, np.uint8), (256, np.uint16), (70000, np.uint32)])
def test_resample_counts_are_exact_in_the_narrowest_dtype(n, dtype):
    counts, means = robsel._resamples(np.zeros((n, 2)), 3, 16, center=False)
    assert counts.dtype == dtype
    assert means is None
    for b in (1, 2, 3):
        draw = np.random.default_rng((16, b)).integers(0, n, n)
        assert np.array_equal(counts[b - 1], np.bincount(draw, minlength=n))


def test_bootstrap_is_bit_identical_across_threads_over_several_blocks():
    # d = 12 is one pair tile; d = 40 has 820 pairs, four tiles.
    rng = np.random.default_rng(41)
    for d, B in ((12, 250), (40, 7), (40, 250)):
        data = rng.standard_normal((150, d))
        config = gs.RobselConfig(alpha=0.1, B=B, seed=14)
        serial = gs.bootstrap_rwp_samples(data, config, threads=1)
        for threads in (2, 3, 5):
            assert np.array_equal(serial, gs.bootstrap_rwp_samples(data, config, threads=threads))


@pytest.mark.parametrize("B", [7, 250])
def test_bootstrap_hands_the_pool_one_item_per_pair_tile(monkeypatch, B):
    handed = []

    def spy(fn, items, threads):
        handed.append((len(items), threads))
        return core.parallel_map(fn, items, threads)

    monkeypatch.setattr(robsel, "parallel_map", spy)
    data = np.random.default_rng(43).standard_normal((60, 40))
    gs.bootstrap_rwp_samples(data, gs.RobselConfig(alpha=0.1, B=B, seed=17), threads=4)
    assert handed == [(4, 4)]


def test_bootstrap_working_set_stays_small():
    # The products x_i * x_j over all pairs would take 33 MB here; they are
    # formed one tile at a time. Past B = 200 each replicate adds its count
    # row (n entries of 2 bytes) and a row of a few pair-tile buffers.
    n = 3200
    data = np.random.default_rng(42).standard_normal((n, 50))
    per_replicate = n * 2 + 5 * robsel._PAIR_BLOCK * 8
    for B in (200, 1000):
        config = gs.RobselConfig(alpha=0.1, B=B, seed=15)
        tracemalloc.start()
        try:
            gs.bootstrap_rwp_samples(data, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6 + (B - 200) * per_replicate


def test_robsel_fit_monotone_alpha_composition():
    truth = gs.generate_precision(10, 0.1, seed=40)
    data = gs.sample_gaussian(truth, 200, seed=41)
    small = gs.robsel_fit(data, gs.RobselConfig(alpha=0.01, B=100, seed=8))
    large = gs.robsel_fit(data, gs.RobselConfig(alpha=0.9, B=100, seed=8))
    assert small.lam >= large.lam
    assert small.method == "robsel"
    assert small.precision is not None
    assert small.diagnostics["converged"]


def test_robsel_fit_degenerate_data_propagates_singularity():
    data = np.tile([0.0, 1.0], (10, 1))
    with pytest.raises(SingularInputError):
        gs.robsel_fit(data, gs.RobselConfig(alpha=0.5, B=20, seed=1))


def test_robsel_fit_rejects_a_failing_fit_before_the_bootstrap(monkeypatch):
    data = gs.sample_gaussian(gs.generate_precision(5, 0.3, seed=7), 60, seed=8).values
    data[:, 2] = 2.0  # a zero variance, which only the unpenalized diagonal rejects
    config = gs.RobselConfig(alpha=0.1, B=20, seed=1)
    boots = []
    monkeypatch.setattr(robsel, "bootstrap_rwp_samples", lambda *args, **kwargs: boots.append(args))
    with pytest.raises(InvalidInputError, match="zero_tol"):
        gs.robsel_fit(data, config, zero_tol=-1.0)
    unpenalized = gs.SolverConfig(lam=0.0, penalize_diagonal=False)
    with pytest.raises(SingularInputError, match="strictly positive variances"):
        gs.robsel_fit(data, config, solver_config=unpenalized)
    assert boots == []
    monkeypatch.undo()
    assert gs.robsel_fit(data, config).diagnostics["converged"]


def test_config_validation():
    with pytest.raises(InvalidInputError):
        gs.RobselConfig(alpha=0.0)
    with pytest.raises(InvalidInputError):
        gs.RobselConfig(alpha=1.0)
    with pytest.raises(InvalidInputError):
        gs.RobselConfig(alpha=0.5, B=0)
    with pytest.raises(InvalidInputError):
        gs.RobselConfig(alpha=0.5, seed=-1)


def test_false_positive_control_monte_carlo():
    # At alpha = 0.1 the fitted graph should contain no false edge in at
    # least 90 of 100 replicates.
    truth = gs.generate_precision(25, 0.02, seed=50)
    clean = 0
    for replicate in range(100):
        data = gs.sample_gaussian(truth, 1600, seed=1000 + replicate)
        config = gs.RobselConfig(alpha=0.1, B=100, seed=2000 + replicate)
        fit = gs.robsel_fit(data, config)
        if not (fit.edges.edges - truth.edges.edges):
            clean += 1
    assert clean >= 90
