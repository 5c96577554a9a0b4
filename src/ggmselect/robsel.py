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
    """Bootstrap controls: replicate count B and seed. One bootstrap serves
    every alpha, an argument of ``robsel_lambda``. Every replicate is formed
    the way A is; see ``bootstrap_rwp_samples``."""

    B: int = 200
    seed: int = 0

    def __post_init__(self):
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


def _order_statistic(samples, alpha: float) -> tuple[float, int]:
    """(lambda, 0-based order index) of the sorted profile ``samples`` at alpha."""
    index = order_statistic_rank(samples.size, alpha) - 1
    return float(samples[index]), index


#: Upper-triangle pairs (i <= j) per tile, the unit of parallel work.
_PAIR_BLOCK = 256
#: Rows of the data per chunk of the count-weighted product.
_ROW_CHUNK = 128


def _shifted_chunks(X, shift):
    """(rows, X[rows] - shift) for each chunk of ``_ROW_CHUNK`` rows: the
    data is shifted as it is read, never copied whole."""
    for start in range(0, X.shape[0], _ROW_CHUNK):
        rows = slice(start, start + _ROW_CHUNK)
        yield rows, X[rows] - shift


def _resamples(X, shift, B: int, seed: int, center: bool):
    """Counts c_bk of each row k in the draw of replicate b = 1..B,
    ``default_rng((seed, b)).integers(0, n, n)``, stored exactly as
    ``np.min_scalar_type(n)``; and with ``center`` the resample means
    m_b = sum_k c_bk (x_k - shift) / n, else None."""
    n, d = X.shape
    counts = np.empty((B, n), dtype=np.min_scalar_type(n))
    for b in range(1, B + 1):
        draw = np.random.default_rng((seed, b)).integers(0, n, n)
        counts[b - 1] = np.bincount(draw, minlength=n)
    if not center:
        return counts, None
    means = np.zeros((B, d))
    for rows, chunk in _shifted_chunks(X, shift):
        means += counts[:, rows].astype(float) @ chunk
    return counts, means / n


def _tile_maxima(X, shift, A, counts, means, I, J) -> np.ndarray:
    """max over the pairs (I, J) of |S_b - A| for every replicate b, where
    S_b = sum_k c_bk y_k y_k^T / n with y_k = x_k - shift, less m_b m_b^T
    when ``means`` is given. Each chunk of rows forms its products y_ki y_kj
    once and weights them by all B count rows in one product, so neither the
    n x d(d+1)/2 products nor the float counts are held whole."""
    n = X.shape[0]
    S = np.zeros((counts.shape[0], I.size))
    for rows, chunk in _shifted_chunks(X, shift):
        products = chunk[:, I]
        products *= chunk[:, J]
        S += counts[:, rows].astype(float) @ products
    # Free the chunk buffers before the mean correction gathers its own.
    del chunk, products
    S /= n
    if means is not None:
        outer = means[:, I]
        outer *= means[:, J]
        S -= outer
    S -= A[I, J]
    return np.abs(S, out=S).max(axis=1)


def bootstrap_rwp_samples(data, config: RobselConfig, center: bool = True, threads: int = 1) -> np.ndarray:
    """Sorted (ascending) bootstrap profile values R*_1..R*_B.

    Each replicate is formed as A is: centered at the resample's own mean,
    or with ``center=False`` the raw second moment of the resample. (To
    center replicates at the full-sample mean instead, center the data at
    its mean and pass ``center=False``.) Replicate b depends only on
    (config.seed, b). The working set is the B count rows, at most B * n * 2
    bytes below n = 65536, plus one pair tile's buffers per thread, about
    B * 5 KB; the bootstrap loop holds no centered copy of the data. The
    full-sample covariance A, formed first, still centers one n * d copy,
    which is freed before the counts are drawn. Each tile of pairs (i, j) is one task at shapes fixed by
    (B, n, d), and R*_b is the maximum over the tiles, so every thread count
    gives bit-identical results.
    """
    values = as_data_matrix(data).values
    A = _cov(values, center=center)
    # Centered replicates are shift-invariant, so they are formed from the
    # data shifted by its mean, where S_b - m_b m_b^T cancels less. Each row
    # chunk is shifted as it is read; a zero shift leaves the raw moments.
    shift = values.mean(axis=0) if center else np.zeros(values.shape[1])
    counts, means = _resamples(values, shift, config.B, config.seed, center)
    pairs = np.array(np.triu_indices(values.shape[1]))
    tiles = np.split(pairs, range(_PAIR_BLOCK, pairs.shape[1], _PAIR_BLOCK), axis=1)
    maxima = parallel_map(lambda tile: _tile_maxima(values, shift, A, counts, means, *tile), tiles, threads)
    return np.sort(np.max(maxima, axis=0))


def robsel_lambda(data, alpha: float, config: RobselConfig, center: bool = True, threads: int = 1) -> RobselResult:
    """Select the penalty level for a confidence parameter alpha in (0, 1).

    Draws B bootstrap resamples of the rows, computes each replicate's
    covariance profile value against the full-sample covariance, and returns
    the order statistic at rank ceil((B + 1)(1 - alpha)). Alpha is checked first.
    """
    _check_alpha(alpha)
    samples = bootstrap_rwp_samples(data, config, center=center, threads=threads)
    lam, index = _order_statistic(samples, alpha)
    return RobselResult(lam=lam, rwp_samples=samples, order_index=index, alpha=alpha)
