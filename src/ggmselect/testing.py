"""Testing-based graph selection: partial-correlation p-values with
family-wise multiplicity adjustments (Holm by default, Bonferroni and
Sidak as alternatives).

For variables i and j, the partial correlation given the rest is
r_ij = -O_ij / sqrt(O_ii * O_jj) with O the inverse covariance. Its Fisher
transform z_ij = arctanh(r_ij) gives the two-sided p-value

    p_ij = 2 * (1 - Phi(sqrt(n - d - 1) * |z_ij|)).

Testing identifies the zero pattern only; no matrix estimate is produced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import EdgeSet, SelectionResult, _cov, as_data_matrix, check_square_symmetric, symmetrize
from .errors import (
    DegenerateCorrelationWarning,
    InvalidInputError,
    NotApplicableError,
)
from .solver import _pd_inverse


@dataclass
class PValueMatrix:
    """Upper-triangular p-values for the d(d-1)/2 edge null hypotheses.

    ``unadjusted`` and ``adjusted`` are flat arrays in row-major upper
    triangle order, i.e. the order of ``numpy.triu_indices(d, 1)``.
    """

    d: int
    unadjusted: np.ndarray
    adjusted: np.ndarray | None = None

    def __post_init__(self):
        m = self.d * (self.d - 1) // 2
        unadjusted = np.asarray(self.unadjusted, dtype=float)
        if unadjusted.shape != (m,):
            raise InvalidInputError(f"expected {m} p-values for d={self.d}")
        if np.any(unadjusted < 0) or np.any(unadjusted > 1):
            raise InvalidInputError("p-values must lie in [0, 1]")
        self.unadjusted = unadjusted
        if self.adjusted is not None:
            adjusted = np.asarray(self.adjusted, dtype=float)
            if adjusted.shape != (m,):
                raise InvalidInputError(f"expected {m} adjusted p-values for d={self.d}")
            if np.any(adjusted < unadjusted) or np.any(adjusted > 1):
                raise InvalidInputError(
                    "adjusted p-values must lie in [0, 1] and dominate the unadjusted ones"
                )
            self.adjusted = adjusted

    def as_matrix(self, which: str = "adjusted") -> np.ndarray:
        """Symmetric d-by-d matrix of the chosen p-values with NaN diagonal."""
        flat = self.adjusted if which == "adjusted" else self.unadjusted
        if flat is None:
            raise InvalidInputError("adjusted p-values have not been computed")
        out = np.full((self.d, self.d), np.nan)
        rows, cols = np.triu_indices(self.d, k=1)
        out[rows, cols] = flat
        out[cols, rows] = flat
        return out


def partial_correlations(A) -> np.ndarray:
    """Matrix of sample partial correlations from a covariance matrix.

    Inverts A directly (a strictly positive definite input is required) and
    returns R with R_ij = -O_ij / sqrt(O_ii * O_jj) and unit diagonal.
    """
    A = check_square_symmetric(A, "covariance matrix")
    omega = _pd_inverse(A, "covariance matrix is singular or not positive definite")
    scale = np.sqrt(np.diag(omega))
    R = -omega / np.outer(scale, scale)
    np.fill_diagonal(R, 1.0)
    return symmetrize(R)


def _check_testable(n: int, d: int) -> None:
    """Raise NotApplicableError unless n > d + 1, where sqrt(n - d - 1) is defined."""
    if n <= d + 1:
        raise NotApplicableError(
            f"partial-correlation testing requires n > d + 1 (n={n}, d={d})"
        )


def unadjusted_pvalues(R, n: int) -> PValueMatrix:
    """Two-sided p-values for each off-diagonal entry of the d-by-d partial
    correlation matrix ``R`` of ``n`` samples.

    Raises NotApplicableError unless n > d + 1, the regime where the
    z-transform scale sqrt(n - d - 1) is defined. A partial correlation of
    exactly +-1 maps to a p-value of 0 with a DegenerateCorrelationWarning.
    """
    R = check_square_symmetric(R, "partial correlation matrix")
    d = R.shape[0]
    _check_testable(n, d)
    rows, cols = np.triu_indices(d, k=1)
    r = R[rows, cols]
    if np.any(np.abs(r) > 1.0 + 1e-12):
        raise InvalidInputError("partial correlations must lie in [-1, 1]")
    degenerate = np.abs(r) >= 1.0
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} partial correlation(s) equal +-1; "
            "p-values set to 0",
            DegenerateCorrelationWarning,
        )
    z = np.zeros_like(r)
    z[~degenerate] = np.arctanh(r[~degenerate])
    # 2 * (1 - Phi(x)) = erfc(x / sqrt(2)); erfc does not cancel in the tail.
    x = np.sqrt(n - d - 1) * np.abs(z) / math.sqrt(2.0)
    pvals = np.array([math.erfc(v) for v in x.tolist()])
    pvals[degenerate] = 0.0
    return PValueMatrix(d, np.minimum(pvals, 1.0))


def _check_unit_interval(pvals) -> np.ndarray:
    pvals = np.asarray(pvals, dtype=float)
    if pvals.ndim != 1:
        raise InvalidInputError("p-values must be a flat vector")
    if pvals.size == 0:
        raise InvalidInputError("p-value vector is empty")
    if np.any(~np.isfinite(pvals)) or np.any(pvals < 0) or np.any(pvals > 1):
        raise InvalidInputError("p-values must lie in [0, 1]")
    return pvals


def holm_adjust(pvals) -> np.ndarray:
    """Holm step-down adjusted p-values, in the original input order.

    With p_(1) <= ... <= p_(m) the sorted values, the adjusted value at sorted
    position a is max_{b<=a} min((m - b + 1) * p_(b), 1).
    """
    pvals = _check_unit_interval(pvals)
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    stepdown = np.minimum((m - np.arange(m)) * pvals[order], 1.0)
    stepdown = np.maximum.accumulate(stepdown)
    out = np.empty(m)
    out[order] = stepdown
    return out


def bonferroni_adjust(pvals) -> np.ndarray:
    """Bonferroni adjusted p-values min(m * p, 1), in input order."""
    pvals = _check_unit_interval(pvals)
    return np.minimum(pvals.size * pvals, 1.0)


def sidak_adjust(pvals) -> np.ndarray:
    """Sidak adjusted p-values 1 - (1 - p)^m, in input order."""
    pvals = _check_unit_interval(pvals)
    # expm1/log1p keep tiny p-values from underflowing below their input.
    with np.errstate(divide="ignore"):
        adjusted = -np.expm1(pvals.size * np.log1p(-pvals))
    return np.minimum(adjusted, 1.0)


_ADJUSTERS = {
    "holm": holm_adjust,
    "bonferroni": bonferroni_adjust,
    "sidak": sidak_adjust,
}
ADJUSTMENT_METHODS = tuple(_ADJUSTERS)


def adjust_pvalues(pvals, method: str = "holm") -> np.ndarray:
    """Dispatch to one of the supported adjustment methods."""
    if method not in _ADJUSTERS:
        raise InvalidInputError(
            f"unknown adjustment method {method!r}; expected one of {ADJUSTMENT_METHODS}"
        )
    return _ADJUSTERS[method](pvals)


def _rejections(adjusted, d: int, alpha: float) -> EdgeSet:
    """Edges whose adjusted p-value, in ``numpy.triu_indices(d, 1)`` order,
    is <= alpha."""
    rows, cols = np.triu_indices(d, k=1)
    keep = adjusted <= alpha
    pairs = frozenset(zip(rows[keep].tolist(), cols[keep].tolist()))
    return EdgeSet(d, pairs)


def testing_select(data, alpha: float, method: str = "holm", center: bool = True) -> SelectionResult:
    """Select a graph by testing all pairwise partial correlations.

    An edge (i, j) is reported when its adjusted p-value is <= alpha. The
    result carries no precision estimate; testing only identifies the
    zero/non-zero pattern.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    data = as_data_matrix(data)
    n, d = data.n, data.d
    _check_testable(n, d)
    A = _cov(data.values, center=center)
    R = partial_correlations(A)
    pmatrix = unadjusted_pvalues(R, n)
    adjusted = adjust_pvalues(pmatrix.unadjusted, method)
    return SelectionResult(
        method=method,
        alpha=alpha,
        lam=None,
        precision=None,
        edges=_rejections(adjusted, d, alpha),
        diagnostics={"pvalues": PValueMatrix(d, pmatrix.unadjusted, adjusted)},
    )
