"""Baseline penalty selection: k-fold cross-validation and extended BIC
over a logarithmically spaced grid.

The grid spans [0.05 * s_max, s_max] where s_max, the largest absolute
off-diagonal covariance entry, is the smallest penalty that yields an
edgeless graph. Cross-validation scores a fitted precision K on a held-out
covariance A_val with the graphical loss trace(K A_val) - log det K. The
EBIC score of a fit with E edges is

    -2 * L + |E| * log(n) + 4 * gamma * |E| * log(d),

with L = (n/2) * (log det K - trace(K A)) the Gaussian log-likelihood up to
an additive constant. The likelihood of the penalized estimate is scored
directly rather than refitting an unpenalized model on the selected
support; this is the usual practical approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_ZERO_TOL,
    _cov,
    as_data_matrix,
    check_square_symmetric,
    edges_from_precision,
    max_offdiag_abs,
    parallel_map,
)
from .errors import InvalidInputError
from .solver import SolverConfig, _chol_logdet, glasso


@dataclass
class LambdaGrid:
    """Strictly decreasing penalty values in (0, s_max], largest equal to s_max."""

    values: np.ndarray
    s_max: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise InvalidInputError("grid must be a nonempty vector")
        if np.any(np.diff(values) >= 0):
            raise InvalidInputError("grid values must be strictly decreasing")
        if values[0] != self.s_max or np.any(values <= 0) or np.any(values > self.s_max):
            raise InvalidInputError("grid values must lie in (0, s_max] with max s_max")
        self.values = values

    def __len__(self) -> int:
        return self.values.size


@dataclass
class TuningResult:
    """Chosen penalty and the (lambda, score) table it minimized.

    Ties are broken toward the larger penalty (the sparser model).
    """

    chosen_lambda: float
    scores: list[tuple[float, float]]
    fold_assignments: np.ndarray | None = None


def lambda_grid(A, grid_size: int = 10) -> LambdaGrid:
    """Geometric grid of ``grid_size`` values from s_max down to 0.05 * s_max."""
    if grid_size < 2:
        raise InvalidInputError(f"grid_size must be >= 2, got {grid_size}")
    s_max = max_offdiag_abs(A)
    if s_max <= 0:
        raise InvalidInputError(
            "all off-diagonal covariance entries are zero; no grid exists"
        )
    exponents = np.arange(grid_size) / (grid_size - 1)
    values = s_max * np.power(0.05, exponents)
    return LambdaGrid(values=values, s_max=s_max)


def _pick_minimum(scores: list[tuple[float, float]]) -> float:
    # Scores are listed with lambda decreasing, so a strict comparison keeps
    # the largest lambda among ties.
    best_lam, best_score = scores[0]
    for lam, score in scores[1:]:
        if score < best_score:
            best_lam, best_score = lam, score
    return best_lam


def _path_scores(A_train, grid: LambdaGrid, base: SolverConfig, score_fn) -> list[float]:
    """Fit the grid top-down with warm starts; score each fit."""
    out = []
    warm = None
    for lam in grid.values:
        result = glasso(A_train, replace(base, lam=float(lam)), init=warm)
        warm = result.precision
        out.append(score_fn(result))
    return out


def _validation_loss(precision, A_val) -> float:
    logdet = _chol_logdet(precision, "fitted precision is not positive definite")
    return float(np.sum(precision * A_val)) - logdet


def cv_select(
    data,
    folds: int,
    grid: LambdaGrid,
    solver_config: SolverConfig | None = None,
    seed: int = 0,
    center: bool = True,
    threads: int = 1,
) -> TuningResult:
    """k-fold cross-validation over the penalty grid.

    Rows are shuffled by ``seed`` and split into near-equal folds. For each
    fold and penalty, the model is fitted on the training covariance and
    scored with the graphical loss on the held-out covariance (centered at
    the validation fold's own mean). The chosen penalty minimizes the mean
    validation loss.
    """
    data = as_data_matrix(data)
    n = data.n
    if folds < 2:
        raise InvalidInputError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise InvalidInputError(f"cannot split {n} rows into {folds} folds")
    base = solver_config if solver_config is not None else SolverConfig(lam=0.0)

    rng = np.random.default_rng(seed)
    permutation = rng.permutation(n)
    parts = np.array_split(permutation, folds)
    assignments = np.empty(n, dtype=int)
    for f, part in enumerate(parts):
        assignments[part] = f
        if n - part.size < 2:
            raise InvalidInputError(
                f"fold {f} leaves fewer than 2 training rows ({n - part.size})"
            )

    values = data.values

    def one_fold(part):
        mask = np.ones(n, dtype=bool)
        mask[part] = False
        A_train = _cov(values[mask], center=center)
        A_val = _cov(values[part], center=True)
        return _path_scores(
            A_train, grid, base, lambda res: _validation_loss(res.precision, A_val)
        )

    per_fold = parallel_map(one_fold, parts, threads)

    mean_scores = np.mean(np.asarray(per_fold), axis=0)
    scores = [(float(lam), float(s)) for lam, s in zip(grid.values, mean_scores)]
    return TuningResult(
        chosen_lambda=_pick_minimum(scores),
        scores=scores,
        fold_assignments=assignments,
    )


def ebic_score(
    precision,
    A,
    n: int,
    d: int,
    gamma: float,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> float:
    """Extended BIC of a fitted precision matrix.

    Computes -2 * L + |E| * log(n) + 4 * gamma * |E| * log(d) with
    L = (n/2)(log det K - trace(K A)) and |E| the number of edges of K at
    threshold ``zero_tol``.
    """
    if gamma < 0:
        raise InvalidInputError(f"gamma must be >= 0, got {gamma}")
    if n < 2 or d < 2:
        raise InvalidInputError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    precision = check_square_symmetric(precision, "precision matrix")
    A = check_square_symmetric(A, "covariance matrix")
    if precision.shape != A.shape:
        raise InvalidInputError("precision and covariance dimensions differ")
    logdet = _chol_logdet(precision, "precision matrix is not positive definite")
    loglik = 0.5 * n * (logdet - float(np.sum(precision * A)))
    n_edges = len(edges_from_precision(precision, zero_tol))
    return -2.0 * loglik + n_edges * math.log(n) + 4.0 * gamma * n_edges * math.log(d)


def ebic_select(
    data,
    grid: LambdaGrid,
    gamma: float = 0.5,
    solver_config: SolverConfig | None = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
    center: bool = True,
) -> TuningResult:
    """Fit the full grid (warm-started, descending) and minimize the EBIC."""
    data = as_data_matrix(data)
    A = _cov(data.values, center=center)
    base = solver_config if solver_config is not None else SolverConfig(lam=0.0)
    path = _path_scores(
        A,
        grid,
        base,
        lambda res: ebic_score(res.precision, A, data.n, data.d, gamma, zero_tol),
    )
    scores = [(float(lam), float(s)) for lam, s in zip(grid.values, path)]
    return TuningResult(chosen_lambda=_pick_minimum(scores), scores=scores)
