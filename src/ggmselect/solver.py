"""Graphical lasso: l1-penalized sparse precision matrix estimation.

Solves

    min_{K positive definite}  trace(K A) - log det K + lambda * P(K)

where A is an empirical covariance matrix and P(K) sums |K_ij| over all
entries (``penalize_diagonal=True``) or over off-diagonal entries only.
The problem first splits into the connected components of the thresholded
covariance {|A_ij| > lambda}, which are exactly the diagonal blocks of the
solution. Blocks of one and two variables have closed forms. Each larger
block is solved by block coordinate descent over columns: each column
update is a lasso problem on the partitioned system, solved exactly by
feature-sign search, whose systems of one or two active coefficients are
solved in closed form too.
Optimality is certified by the max-norm violation of the subgradient
conditions

    |A_ij - W_ij| <= lambda                      where K_ij = 0,
    A_ij - W_ij + lambda * sign(K_ij) = 0        where K_ij != 0,

with W = K^-1 and the diagonal included according to ``penalize_diagonal``
(an unpenalized entry uses lambda = 0 in the conditions above).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .core import DEFAULT_ZERO_TOL, _check_zero_tol, check_square_symmetric, symmetrize
from .errors import InvalidInputError, SingularInputError


#: Cap on the solve steps of one column subproblem; a step adds a coordinate
#: or moves along one segment. Exact arithmetic ends in finitely many steps,
#: and the cap only bounds a cycle that rounding could start.
_MAX_STEPS = 1000


def _feature_sign(Q, b, lam, beta, tol, free=True):
    """Feature-sign search for min_beta 0.5*beta'Q beta - b'beta + lam*||beta||_1.

    ``Q`` must be exactly symmetric and positive definite. ``beta`` is
    updated in place from its warm start. ``free`` is a boolean mask of the
    coordinates solved for (True, the default, frees all of them); the
    others must start at 0.0 and stay exactly 0.0. Returns ``Q @ beta``,
    computed from the nonzero coefficients alone.

    Lee, Battle, Raina & Ng (2007, "Efficient sparse coding algorithms"):
    on the support S with signs theta, solve Q_SS beta_S = b_S - lam*theta.
    If a sign flips, move to the lowest objective among the zero crossings
    of the segment from the current point and its end, drop the zeros and
    solve again. Once the signs hold, every nonzero coordinate is optimal;
    add the free zero coordinate whose condition |(Q beta - b)_i| <= lam is
    violated most, with the sign that descends, while that violation exceeds
    ``tol``. Each step lowers the objective, so the search ends in finitely
    many steps.

    Each step gathers the rows Q_S once; Q_SS and the returned product
    beta_S' Q_S both come from them. About a third of the active systems of
    a glasso path hold one or two coordinates; those are solved in closed
    form (see ``_solve_active``), as a LAPACK call costs far more than their
    arithmetic.

    Raises SingularInputError if Q_SS is singular.
    """
    support = beta.nonzero()[0]
    theta = np.sign(beta[support])
    for _ in range(_MAX_STEPS):
        if support.size:
            rows = Q.take(support, 0)
            block = rows.take(support, 1)
            rhs = b[support]
            target = _solve_active(block, rhs - lam * theta)
            agree = target * theta
            if agree[agree.argmin()] <= 0.0:
                coef = _segment_search(block, rhs, lam, beta[support], target)
                beta[support] = coef
                kept = coef != 0.0
                support = support[kept]
                theta = np.sign(coef[kept])
                continue
            beta[support] = target
            w = target @ rows
        else:
            w = np.zeros_like(b)
        violation = np.abs(w - b)
        violation *= free
        violation[support] = 0.0
        i = violation.argmax()
        if violation[i] <= lam + tol:
            return w
        support = np.concatenate((support, (i,)))
        theta = np.concatenate((theta, (-1.0 if w[i] > b[i] else 1.0,)))
    return beta[support] @ Q[support]


def _solve_active(block, rhs):
    """Solution x of block @ x = rhs for the PD active block of a column.

    One and two coordinates have closed forms: x = rhs / q, and Cramer's
    rule, which is forward stable at this size; a pivot or determinant that
    is not positive means the block is not PD. Larger blocks are solved by
    LU, which fails only on an exactly singular one.

    Raises SingularInputError if the block is singular.
    """
    size = rhs.size
    if size == 1:
        pivot = block.item()
        if pivot > 0.0:
            return rhs / pivot
    elif size == 2:
        (a, c), (_, e) = block.tolist()
        det = a * e - c * c
        if a > 0.0 and det > 0.0:
            r0, r1 = rhs.tolist()
            return np.array(((e * r0 - c * r1) / det, (a * r1 - c * r0) / det))
    else:
        try:
            return np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError:
            pass
    raise SingularInputError(
        "working covariance is singular on a column's active set; "
        "the input may be too ill-conditioned"
    )


def _segment_search(Q, b, lam, start, end):
    """Point of lowest objective among the segment's zero crossings and its end.

    ``start`` has no zero (or is zero only where a coordinate just entered);
    each coordinate that changes sign on the way crosses zero once, and at
    its crossing it is set to exactly 0.0.
    """
    step = end - start
    crosses = np.flatnonzero((start != 0.0) & (np.sign(end) != np.sign(start)))
    t = np.append(-start[crosses] / step[crosses], 1.0)
    points = start + t[:, None] * step
    points[np.arange(crosses.size), crosses] = 0.0
    values = ((0.5 * points @ Q - b) * points + lam * np.abs(points)).sum(axis=1)
    return points[values.argmin()]


@dataclass
class SolverConfig:
    """Parameters of one graphical lasso fit and of the graph read from it.

    lam : penalty level, >= 0.
    penalize_diagonal : include diagonal entries in the l1 penalty.
    kkt_tol : finite max-norm subgradient violation (> 0) accepted as converged.
    max_sweeps : cap on full column sweeps.
    zero_tol : edge threshold, finite and >= 0: the fit's graph holds the
        pairs with |K_ij| > zero_tol (``edges_from_precision``).
    """

    lam: float
    penalize_diagonal: bool = True
    kkt_tol: float = 1e-6
    max_sweeps: int = 500
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise InvalidInputError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.kkt_tol) and self.kkt_tol > 0):
            raise InvalidInputError(f"kkt_tol must be finite and positive, got {self.kkt_tol}")
        if self.max_sweeps < 1:
            raise InvalidInputError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        _check_zero_tol(self.zero_tol)

    @classmethod
    def from_settings(cls, settings, lam: float) -> SolverConfig:
        """The configuration at ``lam``, other fields read from ``settings``."""
        return cls(lam, **{f.name: getattr(settings, f.name) for f in fields(cls)[1:]})


@dataclass
class SolverResult:
    """Solver output: precision estimate K, its inverse W, and diagnostics.

    ``block_sizes`` are the sizes of the connected components of
    {|A_ij| > lambda}, the diagonal blocks solved apart, largest first;
    lambda = 0 does not split the problem and gives ``(d,)``.
    """

    precision: np.ndarray
    covariance: np.ndarray
    objective: float
    kkt_residual: float
    sweeps_used: int
    converged: bool
    block_sizes: tuple[int, ...]


def _cholesky(matrix, err: str) -> np.ndarray:
    """Lower Cholesky factor of a PD matrix; raises SingularInputError if not PD."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise SingularInputError(err) from None


def _factor_logdet(factor) -> float:
    """log det of L L' from its lower Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(factor))))


def _chol_logdet(matrix, err: str) -> float:
    """log det of a PD matrix via Cholesky; raises SingularInputError if not PD."""
    return _factor_logdet(_cholesky(matrix, err))


def _pd_inverse(matrix, err: str) -> np.ndarray:
    """Inverse of a PD matrix by LU, symmetrized (at d = 50 and 100 faster than
    L^-T L^-1); raises SingularInputError if it has no Cholesky factor."""
    _cholesky(matrix, err)
    return symmetrize(np.linalg.inv(matrix))


def _components(adjacency) -> np.ndarray:
    """Connected-component labels of a symmetric boolean adjacency matrix.

    Components are numbered 0, 1, ... in the order of their smallest index.
    Each round every vertex takes the smallest label among itself and its
    neighbours, then follows its label's own label (pointer jumping); a
    label is always a vertex of the same component no larger than the vertex
    itself, so at the fixed point it is the component's smallest index.
    """
    d = adjacency.shape[0]
    closed = adjacency | np.eye(d, dtype=bool)
    labels = np.arange(d)
    while True:
        smallest = np.where(closed, labels, d).min(axis=1)
        smallest = smallest[smallest]
        if np.array_equal(smallest, labels):
            break
        labels = smallest
    roots = labels == np.arange(d)
    return np.cumsum(roots)[labels] - 1


def _penalty(precision, lam, penalize_diagonal) -> float:
    total = float(np.abs(precision).sum())
    if not penalize_diagonal:
        total -= float(np.abs(np.diag(precision)).sum())
    return lam * total


def _check_psd(A) -> None:
    """Reject A with an eigenvalue below -1e-8 * max(1, max |A_ij|).

    That holds exactly when A + 1e-8 * scale * I is not positive definite,
    which its Cholesky factorization tells up to rounding of about
    d * eps * scale, at a fraction of the cost of the eigenvalues.
    """
    scale = max(1.0, float(np.abs(A).max()))
    try:
        np.linalg.cholesky(A + 1e-8 * scale * np.eye(A.shape[0]))
    except np.linalg.LinAlgError:
        raise InvalidInputError("covariance input is not positive semidefinite") from None


def _check_variances(A, penalize_diagonal: bool) -> None:
    """The off-diagonal-only penalty needs every variance positive: with a
    zero variance and lambda > 0 the objective has no minimum. Raises
    SingularInputError otherwise."""
    if not penalize_diagonal and float(np.diag(A).min()) <= 0.0:
        raise SingularInputError(
            "off-diagonal-only penalty requires strictly positive variances"
        )


def _subgradient_residual(precision, inverse, A, lam, penalize_diagonal) -> float:
    gap = A - inverse
    lam_matrix = np.full_like(A, lam)
    if not penalize_diagonal:
        np.fill_diagonal(lam_matrix, 0.0)
    nonzero = precision != 0.0
    viol_active = np.abs(gap + lam_matrix * np.sign(precision))
    viol_inactive = np.maximum(np.abs(gap) - lam_matrix, 0.0)
    return float(np.where(nonzero, viol_active, viol_inactive).max())


def _certificate(precision, A, config: SolverConfig):
    """(inverse, Cholesky factor, KKT residual) of a precision iterate. The
    factor, the PD gate, is taken only if the residual is within ``kkt_tol``,
    else None; an iterate either factorization rejects gives (None, None, inf).
    This is the one accept test: a certified iterate has a factor."""
    try:
        inverse = symmetrize(np.linalg.inv(precision))
        resid = _subgradient_residual(precision, inverse, A, config.lam, config.penalize_diagonal)
        factor = np.linalg.cholesky(precision) if resid <= config.kkt_tol else None
    except np.linalg.LinAlgError:
        return None, None, math.inf
    return inverse, factor, resid


def _objective(precision, logdet, A, config: SolverConfig) -> float:
    return (
        float(np.sum(precision * A))
        - logdet
        + _penalty(precision, config.lam, config.penalize_diagonal)
    )


def _check_pair(precision, A) -> tuple[np.ndarray, np.ndarray]:
    """A precision matrix and a covariance matrix of the same size."""
    precision = check_square_symmetric(precision, "precision matrix")
    A = check_square_symmetric(A, "covariance matrix")
    if precision.shape != A.shape:
        raise InvalidInputError("precision and covariance dimensions differ")
    return precision, A


def objective_value(precision, A, config: SolverConfig) -> float:
    """Evaluate trace(K A) - log det K + lambda * P(K) at a PD matrix K."""
    precision, A = _check_pair(precision, A)
    logdet = _chol_logdet(precision, "precision matrix is not positive definite")
    return _objective(precision, logdet, A, config)


def kkt_residual(precision, A, config: SolverConfig) -> float:
    """Max-norm violation of the stationarity conditions at K; 0 at an optimum."""
    precision, A = _check_pair(precision, A)
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
        from the exact inverse of the returned K) is within ``kkt_tol``,
        the accept test of ``_certificate`` that also ends the sweeps;
        every solve, lambda = 0 included, warns when it is not. When
        ``max_sweeps`` is exhausted the last iterate is returned with
        ``converged=False``.

    Notes
    -----
    For lambda > 0 the problem splits exactly: the connected components of
    the graph {(i, j) : i != j, |A_ij| > lambda} are the diagonal blocks of
    the solution (Witten, Friedman & Simon 2011; Mazumder & Hastie 2012).
    Each single-variable component has the closed form 1 / (A_ii + lambda),
    or 1 / A_ii when the diagonal is not penalized, and each two-variable
    component the one of ``_solve_pair``; both count 0 sweeps. Each larger
    component is solved on its own. ``sweeps_used`` is the largest sweep count over the
    components, ``block_sizes`` lists their sizes, and the KKT residual is
    always computed on the full matrix.
    """
    A = check_square_symmetric(A, "covariance matrix")
    _check_psd(A)
    lam = float(config.lam)

    sweeps = 0
    if lam == 0.0:
        labels = np.zeros(A.shape[0], dtype=int)
        precision = _pd_inverse(
            A, "lambda = 0 requires a strictly positive definite covariance"
        )
    else:
        _check_variances(A, config.penalize_diagonal)
        if init is not None:
            init = check_square_symmetric(init, "warm start")
            if init.shape != A.shape:
                raise InvalidInputError("warm start dimension differs from covariance")
            _cholesky(init, "warm start is not positive definite")

        labels = _components(np.abs(A) > lam)
        sizes = np.bincount(labels)
        precision = np.zeros_like(A)
        shift = lam if config.penalize_diagonal else 0.0
        singles = np.flatnonzero(sizes[labels] == 1)
        precision[singles, singles] = 1.0 / (A[singles, singles] + shift)
        for block in np.flatnonzero(sizes > 1):
            idx = np.flatnonzero(labels == block)
            if idx.size == 2:
                _solve_pair(A, precision, idx, lam, shift)
                continue
            sub = np.ix_(idx, idx)
            sub_init = None if init is None else init[sub]
            precision[sub], block_sweeps = _glasso_block(A[sub], config, sub_init)
            sweeps = max(sweeps, block_sweeps)

    inverse, factor, resid = _certificate(precision, A, config)
    converged = factor is not None
    if not converged:
        factor = _cholesky(precision, "solver produced a non-PD precision matrix")
        warnings.warn(
            f"glasso did not converge in {sweeps} sweeps "
            f"(kkt residual {resid:.3e})",
            RuntimeWarning,
        )
    return SolverResult(
        precision=precision,
        covariance=inverse,
        objective=_objective(precision, _factor_logdet(factor), A, config),
        kkt_residual=resid,
        sweeps_used=sweeps,
        converged=converged,
        block_sizes=tuple(sorted(np.bincount(labels).tolist(), reverse=True)),
    )


def _solve_pair(A, precision, idx, lam, shift) -> None:
    """Write the exact solution of the two-variable component ``idx`` into
    ``precision``.

    The pair is connected, so |A_01| > lam > 0: W_01 = A_01 - lam*sign(A_01)
    meets its condition with sign(K_01) = -sign(W_01) = -sign(A_01), W_ii =
    A_ii + shift meets the diagonal one, and K = W^-1. W is PD whenever A is
    PSD, as (|A_01| - lam)^2 < A_01^2 <= A_00 A_11.
    """
    i, j = idx.tolist()
    a, e = A[i, i] + shift, A[j, j] + shift
    c = A[i, j]
    c -= math.copysign(lam, c)
    det = a * e - c * c
    if det <= 0.0:
        raise SingularInputError(
            "working covariance of a two-variable block is singular; "
            "the input may be too ill-conditioned"
        )
    precision[i, i] = e / det
    precision[j, j] = a / det
    precision[i, j] = precision[j, i] = -c / det


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
            # column update then has no PD solution or a singular active
            # block. The cold start always has a PD solution, and the optimum
            # is unique.
            pass
    return _column_sweeps(A, config, None)


def _column_sweeps(A, config: SolverConfig, init):
    """Sweeps of column updates until the full-matrix certificate holds.

    The update of column j solves the lasso of A[:, j] on the working
    covariance W with coordinate j held at zero, exactly, by feature-sign
    search warm-started from the current column of the precision iterate.
    It runs on the whole of W, with a mask that leaves j out, so no
    (d-1)x(d-1) block is copied. Its solution beta gives W[:, j] = W @ beta,
    which the search returns (with W_jj kept), and the column of the
    precision matrix, written into row and column j alike. W, A and the
    precision iterate are exactly symmetric, so their rows are read in place
    of their columns. A cold start begins every column at beta = 0. Only the
    full-matrix certificate ends the sweeps. Returns (precision, sweeps used).
    """
    d = A.shape[0]
    lam = float(config.lam)

    # Fixed-point diagonal of W: A_ii + lambda when the diagonal is penalized
    # (sign(K_ii) = +1 for PD K), A_ii otherwise.
    if init is not None:
        # glasso has Cholesky-checked the whole warm start, and a principal
        # submatrix of a PD matrix is PD.
        W = symmetrize(np.linalg.inv(init))
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
        _cholesky(W, "initial working covariance is not positive definite")
        # Every column starts from beta = 0, which feature-sign search grows
        # one coordinate at a time; a dense start would shed its coordinates
        # one zero crossing at a time instead.
        precision = np.diag(1.0 / np.diag(W))

    inner_tol = 0.1 * config.kkt_tol
    off_diagonal = ~np.eye(d, dtype=bool)
    sweeps = 0

    for sweeps in range(1, config.max_sweeps + 1):
        for j in range(d):
            beta = precision[j] / -precision[j, j]
            beta[j] = 0.0
            w12 = _feature_sign(W, A[j], lam, beta, inner_tol, off_diagonal[j])
            w12[j] = W[j, j]
            W[:, j] = w12
            W[j] = w12
            gap = W[j, j] - float(beta @ w12)
            if gap <= 0.0:
                raise SingularInputError(
                    "working covariance lost positive definiteness; "
                    "the input may be too ill-conditioned"
                )
            k22 = 1.0 / gap
            k12 = -k22 * beta
            k12[j] = k22
            precision[:, j] = k12
            precision[j] = k12

        # Columns updated one at a time need not give a PD precision iterate
        # while W stays PD (Mazumder & Hastie 2012); the sweeps then go on.
        if _certificate(precision, A, config)[1] is not None:
            break

    return precision, sweeps
