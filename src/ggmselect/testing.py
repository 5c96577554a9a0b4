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

from .core import EdgeSet, SelectionResult, _check_alpha, check_square_symmetric
from .errors import (
    DegenerateCorrelationWarning,
    InvalidInputError,
    NotApplicableError,
)
from .solver import _pd_inverse


@dataclass
class PValueMatrix:
    """Unadjusted and adjusted p-values of the d(d-1)/2 edge null hypotheses,
    flat arrays in ``numpy.triu_indices(d, 1)`` order, with
    0 <= unadjusted <= adjusted <= 1."""

    d: int
    unadjusted: np.ndarray
    adjusted: np.ndarray

    def __post_init__(self):
        m = self.d * (self.d - 1) // 2
        unadjusted = np.asarray(self.unadjusted, dtype=float)
        adjusted = np.asarray(self.adjusted, dtype=float)
        if unadjusted.shape != (m,) or adjusted.shape != (m,):
            raise InvalidInputError(f"expected {m} p-values for d={self.d}")
        if np.any(unadjusted < 0) or np.any(adjusted < unadjusted) or np.any(adjusted > 1):
            raise InvalidInputError("p-values must satisfy 0 <= unadjusted <= adjusted <= 1")
        self.unadjusted = unadjusted
        self.adjusted = adjusted

    def as_matrix(self) -> np.ndarray:
        """Symmetric d-by-d matrix of the adjusted p-values with NaN diagonal."""
        out = np.full((self.d, self.d), np.nan)
        rows, cols = np.triu_indices(self.d, k=1)
        out[rows, cols] = self.adjusted
        out[cols, rows] = self.adjusted
        return out


def partial_correlations(A) -> np.ndarray:
    """Matrix of sample partial correlations from a covariance matrix.

    Inverts A directly (a strictly positive definite input is required) and
    returns R with R_ij = -O_ij / sqrt(O_ii * O_jj) and unit diagonal.
    """
    return _partial_correlations(check_square_symmetric(A, "covariance matrix"))


def _partial_correlations(A) -> np.ndarray:
    """``partial_correlations`` of an already checked, exactly symmetric A.
    R is exactly symmetric too, as omega and the outer product of its scales are."""
    omega = _pd_inverse(A, "covariance matrix is singular or not positive definite")
    scale = np.sqrt(np.diag(omega))
    R = -omega / np.outer(scale, scale)
    np.fill_diagonal(R, 1.0)
    return R


def _check_testable(n: int, d: int) -> None:
    """Raise NotApplicableError unless n > d + 1, where sqrt(n - d - 1) is defined."""
    if n <= d + 1:
        raise NotApplicableError(
            f"partial-correlation testing requires n > d + 1 (n={n}, d={d})"
        )


def unadjusted_pvalues(R, n: int) -> np.ndarray:
    """Two-sided p-values for each off-diagonal entry of the d-by-d partial
    correlation matrix ``R`` of ``n`` samples, as a flat array in
    ``numpy.triu_indices(d, 1)`` order.

    Raises NotApplicableError unless n > d + 1, the regime where the
    z-transform scale sqrt(n - d - 1) is defined. A partial correlation of
    exactly +-1 maps to a p-value of 0 with a DegenerateCorrelationWarning.
    """
    R = check_square_symmetric(R, "partial correlation matrix")
    _check_testable(n, R.shape[0])
    return _pvalues(R, n)


def _pvalues(R, n: int) -> np.ndarray:
    """``unadjusted_pvalues`` of an exactly symmetric R with n > d + 1."""
    d = R.shape[0]
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
    return np.minimum(pvals, 1.0)


def _check_unit_interval(pvals) -> np.ndarray:
    pvals = np.asarray(pvals, dtype=float)
    if pvals.ndim != 1:
        raise InvalidInputError("p-values must be a flat vector")
    if pvals.size == 0:
        raise InvalidInputError("p-value vector is empty")
    if np.any(~np.isfinite(pvals)) or np.any(pvals < 0) or np.any(pvals > 1):
        raise InvalidInputError("p-values must lie in [0, 1]")
    return pvals


def _holm(pvals) -> np.ndarray:
    """Holm step-down: with p_(1) <= ... <= p_(m) the sorted values, the
    adjusted value at sorted position a is max_{b<=a} min((m - b + 1) * p_(b), 1)."""
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    stepdown = np.minimum((m - np.arange(m)) * pvals[order], 1.0)
    stepdown = np.maximum.accumulate(stepdown)
    out = np.empty(m)
    out[order] = stepdown
    return out


def _bonferroni(pvals) -> np.ndarray:
    """Bonferroni: min(m * p, 1)."""
    return np.minimum(pvals.size * pvals, 1.0)


def _sidak(pvals) -> np.ndarray:
    """Sidak: 1 - (1 - p)^m, clamped to [p, 1]."""
    # expm1/log1p keep tiny p-values from underflowing; at m = 1 they can round one ulp below p.
    with np.errstate(divide="ignore"):
        adjusted = -np.expm1(pvals.size * np.log1p(-pvals))
    return np.clip(adjusted, pvals, 1.0)


_ADJUSTERS = {"holm": _holm, "bonferroni": _bonferroni, "sidak": _sidak}
ADJUSTMENT_METHODS = tuple(_ADJUSTERS)


def adjust_pvalues(pvals, method: str = "holm") -> np.ndarray:
    """Family-wise adjusted p-values of the flat vector ``pvals`` in [0, 1],
    in input order, by one of ``ADJUSTMENT_METHODS``: Holm's step-down,
    Bonferroni's min(m * p, 1) or Sidak's 1 - (1 - p)^m over the m values."""
    if method not in _ADJUSTERS:
        raise InvalidInputError(
            f"unknown adjustment method {method!r}; expected one of {ADJUSTMENT_METHODS}"
        )
    return _ADJUSTERS[method](_check_unit_interval(pvals))


def _rejections(adjusted, d: int, alpha: float) -> EdgeSet:
    """Edges whose adjusted p-value, in ``numpy.triu_indices(d, 1)`` order,
    is <= alpha."""
    return EdgeSet.from_upper(d, adjusted <= alpha)


def testing_select(A, n: int, alpha: float, method: str = "holm") -> SelectionResult:
    """Select a graph by testing all pairwise partial correlations of the
    covariance ``A`` of ``n`` samples.

    An edge (i, j) is reported when its adjusted p-value is <= alpha. The
    result carries no precision estimate; testing only identifies the
    zero/non-zero pattern. ``diagnostics["pvalues"]`` holds both p-value
    arrays as a ``PValueMatrix``.
    """
    _check_alpha(alpha)
    A = check_square_symmetric(A, "covariance matrix")
    d = A.shape[0]
    if d < 2:
        raise InvalidInputError(f"testing needs d >= 2 variables, got d={d}")
    _check_testable(n, d)  # before the inversion, which is singular at n <= d
    pvalues = _pvalues(_partial_correlations(A), n)
    adjusted = adjust_pvalues(pvalues, method)
    return SelectionResult(
        method=method,
        alpha=alpha,
        lam=None,
        precision=None,
        edges=_rejections(adjusted, d, alpha),
        diagnostics={"pvalues": PValueMatrix(d, pvalues, adjusted)},
    )
