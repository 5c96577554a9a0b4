"""Bootstrap selection of the graphical lasso penalty at a confidence level.

The resampling profile of a candidate matrix K against the empirical
covariance A_n is the max-norm rwp(A_n, K) = max_ij |A_n[i,j] - K[i,j]|.
Resampling the data with replacement B times yields bootstrap covariances
A*_b and profile values R*_b = rwp(A*_b, A_n); the penalty for confidence
level 1 - alpha is the order statistic of the sorted R*_b at rank
ceil((B + 1) * (1 - alpha)), clamped to [1, B]. Smaller alpha therefore
selects a larger penalty and a sparser graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_ZERO_TOL,
    SelectionResult,
    _cov,
    as_data_matrix,
    check_square_symmetric,
    edges_from_precision,
    parallel_map,
)
from .errors import InvalidInputError
from .solver import SolverConfig, glasso

#: Values of ``RobselConfig.bootstrap_centering``.
BOOTSTRAP_CENTERINGS = ("replicate", "original")


@dataclass
class RobselConfig:
    """Bootstrap controls: confidence parameter alpha, replicate count B, seed.

    ``bootstrap_centering`` chooses whether each bootstrap covariance is
    centered at the replicate's own mean ("replicate", the default) or at the
    mean of the original sample ("original"). It applies only when the
    covariances are centered: with ``center=False`` every bootstrap replicate
    is the raw second moment of its resample, like A itself.
    """

    alpha: float
    B: int = 200
    seed: int = 0
    bootstrap_centering: str = "replicate"

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInputError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.B < 1:
            raise InvalidInputError(f"bootstrap count must be >= 1, got {self.B}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        if self.bootstrap_centering not in BOOTSTRAP_CENTERINGS:
            raise InvalidInputError(
                f"bootstrap_centering must be 'replicate' or 'original', "
                f"got {self.bootstrap_centering!r}"
            )


@dataclass
class RobselResult:
    """Selected penalty plus the sorted bootstrap profile values behind it."""

    lam: float
    rwp_samples: np.ndarray
    order_index: int
    alpha: float


def rwp(A, K) -> float:
    """Max-norm of A - K over all entries, diagonal included."""
    A = check_square_symmetric(A, "A")
    K = check_square_symmetric(K, "K")
    if A.shape != K.shape:
        raise InvalidInputError(
            f"dimension mismatch: {A.shape[0]} vs {K.shape[0]}"
        )
    return float(np.abs(A - K).max())


def order_statistic_rank(B: int, alpha: float) -> int:
    """1-based rank ceil((B + 1) * (1 - alpha)), clamped to [1, B].

    Targets that are integers up to float rounding are snapped to the integer
    before taking the ceiling.
    """
    target = (B + 1) * (1.0 - alpha)
    nearest = round(target)
    rank = nearest if abs(target - nearest) <= 1e-9 else math.ceil(target)
    return min(max(int(rank), 1), B)


def _bootstrap_rwp(values, A, center: bool, seed: int, b: int) -> float:
    rng = np.random.default_rng((seed, b))
    n = values.shape[0]
    sample = values[rng.integers(0, n, size=n)]
    return float(np.abs(_cov(sample, center=center) - A).max())


def bootstrap_rwp_samples(data, config: RobselConfig, center: bool = True, threads: int = 1) -> np.ndarray:
    """Sorted (ascending) bootstrap profile values R*_1..R*_B.

    Each replicate is formed as A is: with ``center=False`` it is the raw
    second moment of its resample, and ``config.bootstrap_centering`` applies
    only when centering. Replicate b depends only on (config.seed, b), so
    parallel and serial execution produce bit-identical results.
    """
    data = as_data_matrix(data)
    values = data.values
    A = _cov(values, center=center)
    # "original" centers once, at the full-sample mean; "replicate" centers
    # each resample at its own mean.
    if center and config.bootstrap_centering == "original":
        values = values - values.mean(axis=0)
    center_replicates = center and config.bootstrap_centering == "replicate"
    samples = parallel_map(
        lambda b: _bootstrap_rwp(values, A, center_replicates, config.seed, b),
        range(1, config.B + 1),
        threads,
    )
    return np.sort(np.asarray(samples, dtype=float))


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


def robsel_fit(
    data,
    config: RobselConfig,
    solver_config: SolverConfig | None = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
    center: bool = True,
    threads: int = 1,
) -> SelectionResult:
    """Bootstrap-select the penalty, then fit the graphical lasso with it."""
    data = as_data_matrix(data)
    selection = robsel_lambda(data, config, center=center, threads=threads)
    base = solver_config if solver_config is not None else SolverConfig(lam=0.0)
    result = glasso(_cov(data.values, center=center), replace(base, lam=selection.lam))
    return SelectionResult(
        method="robsel",
        alpha=config.alpha,
        lam=selection.lam,
        precision=result.precision,
        edges=edges_from_precision(result.precision, zero_tol),
        diagnostics={
            "order_index": selection.order_index,
            "bootstrap": config.B,
            "objective": result.objective,
            "kkt_residual": result.kkt_residual,
            "sweeps_used": result.sweeps_used,
            "converged": result.converged,
        },
    )
