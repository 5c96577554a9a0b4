"""Bootstrap selection of the graphical lasso penalty at a confidence level.

The resampling profile of a candidate matrix K against the empirical
covariance A_n is the max-norm rwp(A_n, K) = max_ij |A_n[i,j] - K[i,j]|.
Resampling the data with replacement B times yields bootstrap covariances
A*_b and profile values R*_b = rwp(A*_b, A_n); the penalty for confidence
level 1 - alpha is the order statistic of the sorted R*_b at rank
ceil((B + 1) * (1 - alpha)), clamped to [1, B]. Smaller alpha therefore
selects a larger penalty and a sparser graph.

All B replicates are computed together, one tile of pairs (i, j) at a time.
This module only selects the penalty: the fit at it is an ordinary
``glasso`` of the same covariance, which the caller runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_alpha, _check_seed, _cov, as_data_matrix, parallel_map
from .errors import InvalidInputError


@dataclass
class RobselConfig:
    """Bootstrap controls: confidence parameter alpha, replicate count B, seed.

    Every replicate is formed the way A is; see ``bootstrap_rwp_samples``.
    """

    alpha: float
    B: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.B < 1:
            raise InvalidInputError(f"bootstrap count must be >= 1, got {self.B}")
        _check_seed(self.seed)


@dataclass
class RobselResult:
    """Selected penalty plus the sorted bootstrap profile values behind it."""

    lam: float
    rwp_samples: np.ndarray
    order_index: int
    alpha: float


def order_statistic_rank(B: int, alpha: float) -> int:
    """1-based rank ceil((B + 1) * (1 - alpha)), clamped to [1, B].

    Targets that are integers up to float rounding are snapped to the integer
    before taking the ceiling.
    """
    target = (B + 1) * (1.0 - alpha)
    nearest = round(target)
    rank = nearest if abs(target - nearest) <= 1e-9 else math.ceil(target)
    return min(max(int(rank), 1), B)


#: Upper-triangle pairs (i <= j) per tile, the unit of parallel work.
_PAIR_BLOCK = 256
#: Rows of the data per chunk of the count-weighted product.
_ROW_CHUNK = 128


def _resamples(X, B: int, seed: int, center: bool):
    """Counts c_bk of each row k in the draw of replicate b = 1..B,
    ``default_rng((seed, b)).integers(0, n, n)``, stored exactly as
    ``np.min_scalar_type(n)``; and with ``center`` the resample means
    m_b = sum_k c_bk x_k / n, else None."""
    n, d = X.shape
    counts = np.empty((B, n), dtype=np.min_scalar_type(n))
    for b in range(1, B + 1):
        draw = np.random.default_rng((seed, b)).integers(0, n, n)
        counts[b - 1] = np.bincount(draw, minlength=n)
    if not center:
        return counts, None
    means = np.zeros((B, d))
    for start in range(0, n, _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        means += counts[:, rows].astype(float) @ X[rows]
    return counts, means / n


def _tile_maxima(X, A, counts, means, I, J) -> np.ndarray:
    """max over the pairs (I, J) of |S_b - A| for every replicate b, where
    S_b = sum_k c_bk x_k x_k^T / n, less m_b m_b^T when ``means`` is given.
    Each chunk of rows forms its products x_ki x_kj once and weights them by
    all B count rows in one product, so neither the n x d(d+1)/2 products
    nor the float counts are held whole."""
    n = X.shape[0]
    S = np.zeros((counts.shape[0], I.size))
    for start in range(0, n, _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        products = X[rows, I]
        products *= X[rows, J]
        S += counts[:, rows].astype(float) @ products
    S /= n
    if means is not None:
        S -= means[:, I] * means[:, J]
    S -= A[I, J]
    return np.abs(S, out=S).max(axis=1)


def bootstrap_rwp_samples(data, config: RobselConfig, center: bool = True, threads: int = 1) -> np.ndarray:
    """Sorted (ascending) bootstrap profile values R*_1..R*_B.

    Each replicate is formed as A is: centered at the resample's own mean,
    or with ``center=False`` the raw second moment of the resample. (To
    center replicates at the full-sample mean instead, center the data at
    its mean and pass ``center=False``.) Replicate b depends only on
    (config.seed, b). All B count rows are held at once, at most B * n * 2
    bytes below n = 65536, so memory grows linearly in B. Each tile of pairs
    (i, j) is one task at shapes fixed by (B, n, d), and R*_b is the maximum
    over the tiles, so every thread count gives bit-identical results.
    """
    data = as_data_matrix(data)
    values = data.values
    A = _cov(values, center=center)
    # Centered replicates are shift-invariant, so they are formed from the
    # data centered at its mean, where S_b - m_b m_b^T cancels less.
    if center:
        values = values - values.mean(axis=0)
    counts, means = _resamples(values, config.B, config.seed, center)
    pairs = np.array(np.triu_indices(values.shape[1]))
    tiles = np.split(pairs, range(_PAIR_BLOCK, pairs.shape[1], _PAIR_BLOCK), axis=1)
    maxima = parallel_map(lambda tile: _tile_maxima(values, A, counts, means, *tile), tiles, threads)
    return np.sort(np.max(maxima, axis=0))


def robsel_lambda(data, config: RobselConfig, center: bool = True, threads: int = 1) -> RobselResult:
    """Select the penalty level for a confidence parameter alpha.

    Draws B bootstrap resamples of the rows, computes each replicate's
    covariance profile value against the full-sample covariance, and returns
    the order statistic at rank ceil((B + 1)(1 - alpha)).
    """
    samples = bootstrap_rwp_samples(data, config, center=center, threads=threads)
    rank = order_statistic_rank(config.B, config.alpha)
    return RobselResult(
        lam=float(samples[rank - 1]),
        rwp_samples=samples,
        order_index=rank - 1,
        alpha=config.alpha,
    )
