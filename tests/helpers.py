"""Shared factories and oracles for the test suite."""

import os
from pathlib import Path

import numpy as np

import ggmselect
from ggmselect.core import _cov


def brute_force_objective_d2(A, lam, penalize_diagonal, grid_points=17, cycles=100):
    """Minimum objective for a 2x2 problem by dense grid plus 1-D refinement.

    Independent of the solver under test: evaluates the objective directly
    and refines each of the 3 free parameters with bounded scalar searches,
    relying on convexity of every coordinate slice.
    """
    from scipy.optimize import minimize_scalar

    a00, a01, a11 = A[0, 0], A[0, 1], A[1, 1]

    def objective(k11, k12, k22):
        det = k11 * k22 - k12 * k12
        if k11 <= 0.0 or k22 <= 0.0 or det <= 0.0:
            return np.inf
        value = k11 * a00 + k22 * a11 + 2.0 * k12 * a01 - np.log(det)
        value += lam * 2.0 * abs(k12)
        if penalize_diagonal:
            value += lam * (k11 + k22)
        return value

    diag_grid = np.geomspace(0.02, 50.0, grid_points)
    best, best_val = (1.0, 0.0, 1.0), objective(1.0, 0.0, 1.0)
    for k11 in diag_grid:
        for k22 in diag_grid:
            bound = 0.999 * np.sqrt(k11 * k22)
            for k12 in np.linspace(-bound, bound, grid_points):
                value = objective(k11, k12, k22)
                if value < best_val:
                    best_val, best = value, (k11, k12, k22)

    k11, k12, k22 = best
    for _ in range(cycles):
        lo = k12 * k12 / k22 + 1e-12
        k11 = minimize_scalar(
            lambda x: objective(x, k12, k22),
            bounds=(lo, lo + 100.0), method="bounded", options={"xatol": 1e-13},
        ).x
        bound = np.sqrt(k11 * k22) - 1e-12
        k12 = minimize_scalar(
            lambda x: objective(k11, x, k22),
            bounds=(-bound, bound), method="bounded", options={"xatol": 1e-13},
        ).x
        lo = k12 * k12 / k11 + 1e-12
        k22 = minimize_scalar(
            lambda x: objective(k11, k12, x),
            bounds=(lo, lo + 100.0), method="bounded", options={"xatol": 1e-13},
        ).x
    return objective(k11, k12, k22)


def lasso_gram_cd_reference(Q, b, lam, beta, max_passes, tol, free=True):
    """Scalar coordinate descent for 0.5*beta'Q beta - b'beta + lam*||beta||_1.

    Independent oracle for ``ggmselect.solver._feature_sign``, which solves
    the same problem by another method: run to a tight ``tol``, it gives the
    objective the kernel must reach. At the start of each pass every free
    coordinate is checked on its own and kept for the pass if it is nonzero
    or ``|g_i - b_i| > lam``; the kept ones are updated in index order, the
    gradient along column ``i`` one entry per step, and the residual over
    the free coordinates is a scalar loop. ``free`` is a boolean mask or
    True (all free). Updates ``beta`` in place and returns (passes,
    residual): it stops once the residual is within ``tol`` after a pass
    that changed no support entry.
    """
    m = beta.shape[0]
    free = np.broadcast_to(free, m).tolist()
    g = Q @ beta
    resid = np.inf
    for p in range(max_passes):
        visit = [
            i for i in range(m)
            if free[i] and (beta[i] != 0.0 or abs(g[i] - b[i]) > lam)
        ]
        support_changed = False
        for i in visit:
            old = beta[i]
            qii = Q[i, i]
            u = b[i] - (g[i] - qii * old)
            if u > lam:
                new = (u - lam) / qii
            elif u < -lam:
                new = (u + lam) / qii
            else:
                new = 0.0
            if new != old:
                delta = new - old
                for k in range(m):
                    g[k] += Q[k, i] * delta
                beta[i] = new
                if (old == 0.0) != (new == 0.0):
                    support_changed = True
        resid = 0.0
        for i in range(m):
            if not free[i]:
                continue
            gi = g[i] - b[i]
            if beta[i] == 0.0:
                v = abs(gi) - lam
                if v < 0.0:
                    v = 0.0
            elif beta[i] > 0.0:
                v = abs(gi + lam)
            else:
                v = abs(gi - lam)
            if v > resid:
                resid = v
        if resid <= tol and not support_changed:
            return p + 1, resid
    return max_passes, resid


def random_covariance(rng, d, n=None):
    """Covariance of a random Gaussian sample; strictly PD when n > d."""
    n = n if n is not None else 10 * d
    X = rng.standard_normal((n, d))
    centered = X - X.mean(axis=0)
    A = centered.T @ centered / n
    return (A + A.T) / 2.0


def random_correlated_data(rng, n, d, strength=0.5):
    """Sample rows with a dense correlation structure."""
    base = np.full((d, d), strength)
    np.fill_diagonal(base, 1.0)
    factor = np.linalg.cholesky(base)
    return rng.standard_normal((n, d)) @ factor.T


def random_edge_pairs(rng, d, prob=0.3):
    pairs = set()
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < prob:
                pairs.add((i, j))
    return pairs


def subprocess_env():
    """Environment for a child ``python -m ggmselect`` that imports this package.

    Prepends the absolute directory holding the ``ggmselect`` package this
    process imported to ``PYTHONPATH``, keeping any entries already there, so
    the child runs the same code whatever its working directory and whether
    that code comes from a source checkout or an installed package.
    """
    package_root = str(Path(ggmselect.__file__).resolve().parent.parent)
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


def bootstrap_rwp_reference(data, config, center=True, full_sample_mean=False):
    """Sorted R*_1..R*_B, one gathered resample at a time.

    Per-replicate reference for ``ggmselect.robsel.bootstrap_rwp_samples``:
    replicate b gathers the rows drawn by
    ``default_rng((config.seed, b)).integers(0, n, n)`` and forms its
    covariance with ``_cov``, centered at the resample's own mean, or not at
    all when ``center=False``. With ``full_sample_mean=True`` (and
    ``center=True``) it is centered at the mean of the full sample instead.
    """
    values = np.asarray(data, dtype=float)
    n = values.shape[0]
    A = _cov(values, center=center)
    if center and full_sample_mean:
        values = values - values.mean(axis=0)
    center_replicates = center and not full_sample_mean
    samples = []
    for b in range(1, config.B + 1):
        sample = values[np.random.default_rng((config.seed, b)).integers(0, n, n)]
        samples.append(np.abs(_cov(sample, center=center_replicates) - A).max())
    return np.sort(samples)
