"""Graphical lasso: l1-penalized sparse precision matrix estimation.

Solves

    min_{K positive definite}  trace(K A) - log det K + lambda * P(K)

where A is an empirical covariance matrix and P(K) sums |K_ij| over all
entries (``penalize_diagonal=True``) or over off-diagonal entries only.
The problem first splits into the connected components of the thresholded
covariance {|A_ij| > lambda}, which are exactly the diagonal blocks of the
solution. Each block of two or more variables is solved by block coordinate
descent over columns: each column update is a lasso problem on the
partitioned system, solved by coordinate descent.
Optimality is certified by the max-norm violation of the subgradient
conditions

    |A_ij - W_ij| <= lambda                      where K_ij = 0,
    A_ij - W_ij + lambda * sign(K_ij) = 0        where K_ij != 0,

with W = K^-1 and the diagonal included according to ``penalize_diagonal``
(an unpenalized entry uses lambda = 0 in the conditions above).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.sparse.csgraph import connected_components

from .core import check_square_symmetric, symmetrize
from .errors import InvalidInputError, SingularInputError


def _lasso_gram_cd(Q, b, lam, beta, max_passes, tol):
    """Coordinate descent for min_beta 0.5*beta'Q beta - b'beta + lam*||beta||_1.

    ``Q`` must be exactly symmetric. ``beta`` is updated in place (warm
    start). Returns (passes, residual) where residual is the max-norm
    subgradient violation. Iterates until the residual is within ``tol`` and
    the last pass changed no support entry, so that coefficients at exactly
    zero stay exactly zero.

    The coordinate loop runs on Python floats; each update moves the whole
    gradient with one vector operation, ``g += Q[i] * delta``, which by the
    symmetry of ``Q`` does the same multiply and add per element as updating
    along column ``i``.
    """
    m = beta.shape[0]
    g = Q @ beta
    diag = Q.diagonal().tolist()
    rhs = b.tolist()
    coef = beta.tolist()
    resid = np.inf
    for p in range(max_passes):
        support_changed = False
        for i in range(m):
            old = coef[i]
            qii = diag[i]
            u = rhs[i] - (float(g[i]) - qii * old)
            if u > lam:
                new = (u - lam) / qii
            elif u < -lam:
                new = (u + lam) / qii
            else:
                new = 0.0
            if new != old:
                g += Q[i] * (new - old)
                coef[i] = new
                if (old == 0.0) != (new == 0.0):
                    support_changed = True
        beta[:] = coef
        grad = g - b
        violation = np.where(
            beta == 0.0,
            np.maximum(np.abs(grad) - lam, 0.0),
            np.abs(grad + np.where(beta > 0.0, lam, -lam)),
        )
        resid = float(violation.max(initial=0.0))
        if resid <= tol and not support_changed:
            return p + 1, resid
    return max_passes, resid


@dataclass
class SolverConfig:
    """Parameters of one graphical lasso solve.

    lam : penalty level, >= 0.
    penalize_diagonal : include diagonal entries in the l1 penalty.
    kkt_tol : max-norm subgradient violation accepted as converged.
    max_sweeps : cap on full column sweeps.
    """

    lam: float
    penalize_diagonal: bool = True
    kkt_tol: float = 1e-6
    max_sweeps: int = 500

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InvalidInputError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.kkt_tol <= 0:
            raise InvalidInputError(f"kkt_tol must be positive, got {self.kkt_tol}")
        if self.max_sweeps < 1:
            raise InvalidInputError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


@dataclass
class SolverResult:
    """Solver output: precision estimate K, its inverse W, and diagnostics."""

    precision: np.ndarray
    covariance: np.ndarray
    objective: float
    kkt_residual: float
    sweeps_used: int
    converged: bool


def _cholesky(matrix, err: str) -> np.ndarray:
    """Lower Cholesky factor of a PD matrix; raises SingularInputError if not PD."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise SingularInputError(err) from None


def _chol_logdet(matrix, err: str) -> float:
    """log det of a PD matrix via Cholesky; raises SingularInputError if not PD."""
    factor = _cholesky(matrix, err)
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def _pd_inverse(matrix, err: str) -> np.ndarray:
    """Inverse of a PD matrix via Cholesky; raises SingularInputError if not PD."""
    factor = _cholesky(matrix, err)
    identity = np.eye(matrix.shape[0])
    return symmetrize(sla.cho_solve((factor, True), identity))


def _penalty(precision, lam, penalize_diagonal) -> float:
    total = float(np.abs(precision).sum())
    if not penalize_diagonal:
        total -= float(np.abs(np.diag(precision)).sum())
    return lam * total


def _check_psd(A) -> None:
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.linalg.eigvalsh(A).min()) < -1e-8 * scale:
        raise InvalidInputError("covariance input is not positive semidefinite")


def _subgradient_residual(precision, inverse, A, lam, penalize_diagonal) -> float:
    gap = A - inverse
    lam_matrix = np.full_like(A, lam)
    if not penalize_diagonal:
        np.fill_diagonal(lam_matrix, 0.0)
    nonzero = precision != 0.0
    viol_active = np.abs(gap + lam_matrix * np.sign(precision))
    viol_inactive = np.maximum(np.abs(gap) - lam_matrix, 0.0)
    return float(np.where(nonzero, viol_active, viol_inactive).max())


def objective_value(precision, A, config: SolverConfig) -> float:
    """Evaluate trace(K A) - log det K + lambda * P(K) at a PD matrix K."""
    precision = check_square_symmetric(precision, "precision matrix")
    A = check_square_symmetric(A, "covariance matrix")
    if precision.shape != A.shape:
        raise InvalidInputError("precision and covariance dimensions differ")
    logdet = _chol_logdet(precision, "precision matrix is not positive definite")
    return (
        float(np.sum(precision * A))
        - logdet
        + _penalty(precision, config.lam, config.penalize_diagonal)
    )


def kkt_residual(precision, A, config: SolverConfig) -> float:
    """Max-norm violation of the stationarity conditions at K; 0 at an optimum."""
    precision = check_square_symmetric(precision, "precision matrix")
    A = check_square_symmetric(A, "covariance matrix")
    if precision.shape != A.shape:
        raise InvalidInputError("precision and covariance dimensions differ")
    inverse = _pd_inverse(precision, "precision matrix is not positive definite")
    return _subgradient_residual(
        precision, inverse, A, config.lam, config.penalize_diagonal
    )


def glasso(A, config: SolverConfig, init=None) -> SolverResult:
    """Solve the l1-penalized precision estimation problem for covariance ``A``.

    Parameters
    ----------
    A : (d, d) array
        Symmetric positive semidefinite covariance matrix. Must be strictly
        positive definite when ``config.lam == 0``.
    config : SolverConfig
        Penalty level and convergence controls.
    init : (d, d) array, optional
        Positive definite warm start for the precision matrix, typically the
        solution at a nearby penalty level. The result is warm-start
        invariant up to ``config.kkt_tol``.

    Returns
    -------
    SolverResult
        ``converged`` is True when the certified KKT residual (recomputed
        from the exact inverse of the returned K) is within ``kkt_tol``;
        every solve, lambda = 0 included, warns when it is not. When
        ``max_sweeps`` is exhausted the best iterate is returned with
        ``converged=False``.

    Notes
    -----
    For lambda > 0 the problem splits exactly: the connected components of
    the graph {(i, j) : i != j, |A_ij| > lambda} are the diagonal blocks of
    the solution (Witten, Friedman & Simon 2011; Mazumder & Hastie 2012).
    Each single-variable component has the closed form 1 / (A_ii + lambda),
    or 1 / A_ii when the diagonal is not penalized; each larger component is
    solved on its own. ``sweeps_used`` is the largest sweep count over the
    components, and the KKT residual is always computed on the full matrix.
    """
    A = check_square_symmetric(A, "covariance matrix")
    _check_psd(A)
    lam = float(config.lam)

    sweeps = 0
    if lam == 0.0:
        precision = _pd_inverse(
            A, "lambda = 0 requires a strictly positive definite covariance"
        )
    else:
        if not config.penalize_diagonal and float(np.diag(A).min()) <= 0.0:
            raise SingularInputError(
                "off-diagonal-only penalty requires strictly positive variances"
            )
        if init is not None:
            init = check_square_symmetric(init, "warm start")
            if init.shape != A.shape:
                raise InvalidInputError("warm start dimension differs from covariance")
            _cholesky(init, "warm start is not positive definite")

        n_blocks, labels = connected_components(np.abs(A) > lam, directed=False)
        precision = np.zeros_like(A)
        shift = lam if config.penalize_diagonal else 0.0
        for block in range(n_blocks):
            idx = np.flatnonzero(labels == block)
            if idx.size == 1:
                i = idx[0]
                precision[i, i] = 1.0 / (A[i, i] + shift)
                continue
            sub = np.ix_(idx, idx)
            sub_init = None if init is None else init[sub]
            precision[sub], block_sweeps = _glasso_block(A[sub], config, sub_init)
            sweeps = max(sweeps, block_sweeps)

    inverse = _pd_inverse(precision, "solver produced a non-PD precision matrix")
    resid = _subgradient_residual(precision, inverse, A, lam, config.penalize_diagonal)
    converged = resid <= config.kkt_tol
    if not converged:
        warnings.warn(
            f"glasso did not converge in {config.max_sweeps} sweeps "
            f"(kkt residual {resid:.3e})",
            RuntimeWarning,
        )
    return SolverResult(
        precision=precision,
        covariance=inverse,
        objective=objective_value(precision, A, config),
        kkt_residual=resid,
        sweeps_used=sweeps,
        converged=converged,
    )


def _glasso_block(A, config: SolverConfig, init):
    """Column-sweep block coordinate descent on one already validated block.

    ``A`` is PSD with lambda > 0 (and a positive diagonal when the diagonal is
    unpenalized); ``init`` is None or a PD warm start of the same shape.
    Returns (precision, sweeps used); the caller certifies the result.
    """
    if init is not None:
        try:
            return _column_sweeps(A, config, init)
        except SingularInputError:
            # The working covariance of a warm start from a larger penalty can
            # lie outside the box |W_ij - A_ij| <= lambda of this one, and a
            # column update then has no PD solution. The cold start always
            # has one, and the optimum is unique.
            pass
    return _column_sweeps(A, config, None)


def _column_sweeps(A, config: SolverConfig, init):
    d = A.shape[0]
    lam = float(config.lam)

    # Fixed-point diagonal of W: A_ii + lambda when the diagonal is penalized
    # (sign(K_ii) = +1 for PD K), A_ii otherwise.
    if init is not None:
        W = _pd_inverse(init, "warm start is not positive definite")
        target_diag = np.diag(A) + (lam if config.penalize_diagonal else 0.0)
        W[np.diag_indices(d)] = target_diag
        precision = init.copy()
    else:
        if config.penalize_diagonal:
            W = A + lam * np.eye(d)
        else:
            # Shrinking off-diagonals keeps W = 0.95*A + 0.05*diag(A) positive
            # definite whenever A is PSD with positive diagonal.
            W = 0.95 * A + 0.05 * np.diag(np.diag(A))
        precision = _pd_inverse(W, "failed to invert the initial working covariance")

    inner_tol = 0.1 * config.kkt_tol
    inner_max = 1000
    indices = np.arange(d)
    best_resid = np.inf
    stalls = 0
    sweeps = 0

    for sweeps in range(1, config.max_sweeps + 1):
        for j in range(d):
            rest = indices != j
            Q = W[np.ix_(rest, rest)]
            b = A[rest, j]
            beta = -precision[rest, j] / precision[j, j]
            _lasso_gram_cd(Q, b, lam, beta, inner_max, inner_tol)
            w12 = Q @ beta
            W[rest, j] = w12
            W[j, rest] = w12
            gap = W[j, j] - float(beta @ w12)
            if gap <= 0.0:
                raise SingularInputError(
                    "working covariance lost positive definiteness; "
                    "the input may be too ill-conditioned"
                )
            k22 = 1.0 / gap
            k12 = -k22 * beta
            precision[j, j] = k22
            precision[rest, j] = k12
            precision[j, rest] = k12

        try:
            inverse = _pd_inverse(precision, "iterate lost positive definiteness")
        except SingularInputError:
            # Columns updated one at a time need not give a PD precision iterate
            # while W stays PD (Mazumder & Hastie 2012); sweep again.
            continue
        resid = _subgradient_residual(precision, inverse, A, lam, config.penalize_diagonal)
        if resid <= config.kkt_tol:
            break
        # Tighten the subproblem tolerance if the certified residual stalls.
        if resid >= 0.999 * best_resid:
            stalls += 1
        else:
            stalls = 0
        best_resid = min(best_resid, resid)
        if stalls >= 3 and inner_tol > 1e-14:
            inner_tol *= 0.01
            stalls = 0

    return precision, sweeps
