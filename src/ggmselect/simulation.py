"""Ground-truth generation, Gaussian sampling, and the replicated
family-wise error rate experiment.

Ground-truth precision matrices follow the sparse construction used for the
simulation study: an Erdos-Renyi support with uniform edge magnitudes in
[0.5, 1] and random signs, each row scaled and the result averaged with its
transpose, then diagonal entries drawn uniformly in [1, 1.5]. The scaling
does not make the matrix diagonally dominant; a Cholesky check on each
diagonal draw, with redraws, makes it positive definite.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import (
    DEFAULT_ZERO_TOL,
    DataMatrix,
    EdgeSet,
    _check_seed,
    _check_zero_tol,
    _cov,
    _warn,
    edges_from_precision,
    parallel_map,
    symmetrize,
    write_csv,
)
from .errors import GenerationError, InvalidInputError, NotApplicableError
from .metrics import confusion, jaccard, metrics_from_confusion
from .robsel import RobselConfig, bootstrap_rwp_samples, order_statistic_rank
from .solver import SolverConfig, glasso
from .testing import (
    ADJUSTMENT_METHODS,
    _check_testable,
    _rejections,
    adjust_pvalues,
    partial_correlations,
    unadjusted_pvalues,
)
from .tuning import (
    DEFAULT_FOLDS,
    DEFAULT_GAMMA,
    DEFAULT_GRID_SIZE,
    TUNING_METHODS,
    _check_tuning,
    cv_select,
    ebic_select,
    lambda_grid,
)

KNOWN_METHODS = ("robsel", *ADJUSTMENT_METHODS, *TUNING_METHODS)


@dataclass
class GroundTruth:
    """A true precision matrix, its edge set, and its inverse."""

    omega: np.ndarray
    edges: EdgeSet
    sigma: np.ndarray


@dataclass
class ExperimentPlan:
    """The sweep definition: one fixed ground truth, many (n, replicate)
    cells, and the methods, solver and tuning settings every cell runs with.

    Each field is one plan-file key (``bootstrap`` sets ``B``). The defaults
    are the sweep a plan file without keys describes. A setting the library
    owns takes its default and its rule from the library.
    """

    d: int = 50
    edge_prob: float = 0.02
    sample_sizes: list[int] = field(default_factory=lambda: [200, 800, 3200])
    replications: int = 100
    alphas: list[float] = field(default_factory=lambda: [0.05, 0.1])
    B: int = RobselConfig.B
    seed: int = 0
    methods: list[str] = field(default_factory=lambda: ["robsel", "holm"])
    penalize_diagonal: bool = SolverConfig.penalize_diagonal
    kkt_tol: float = SolverConfig.kkt_tol
    max_sweeps: int = SolverConfig.max_sweeps
    zero_tol: float = DEFAULT_ZERO_TOL
    folds: int = DEFAULT_FOLDS
    gamma: float = DEFAULT_GAMMA
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if any(n < 2 for n in self.sample_sizes):
            raise InvalidInputError("sample sizes must be >= 2")
        if self.replications < 1:
            raise InvalidInputError("replications must be >= 1")
        for method in self.methods:
            if method not in KNOWN_METHODS:
                raise InvalidInputError(
                    f"unknown method {method!r}; expected a subset of {KNOWN_METHODS}"
                )
        # A repeated value would copy cells and shrink the standard errors.
        for name in ("sample_sizes", "alphas", "methods"):
            values = getattr(self, name)
            if not values:
                raise InvalidInputError(f"{name} must name at least one value")
            if len(set(values)) != len(values):
                raise InvalidInputError(f"repeated value in {name}: {list(values)}")
        # Each setting the library owns is checked with its owner's rule.
        _check_truth(self.d, self.edge_prob)
        for alpha in self.alphas:
            RobselConfig(alpha, self.B, self.seed)
        SolverConfig.from_settings(self, 0.0)
        _check_tuning(self.folds, self.gamma, self.grid_size)
        _check_zero_tol(self.zero_tol)


def _check_truth(d: int, edge_prob: float) -> None:
    if d < 2:
        raise InvalidInputError(f"d must be >= 2, got {d}")
    if not (0.0 < edge_prob < 1.0):
        raise InvalidInputError(f"edge_prob must be in (0, 1), got {edge_prob}")


#: Redraws of the diagonal allowed when a draw loses positive definiteness.
_DIAGONAL_REDRAWS = 100


def generate_precision(d: int, edge_prob: float, seed: int) -> GroundTruth:
    """Generate a sparse positive definite precision matrix.

    Steps: (1) Erdos-Renyi support over all pairs with probability
    ``edge_prob``; (2) edge magnitudes uniform in [0.5, 1] with equiprobable
    signs; (3) each row's off-diagonal entries divided by 1.5 times the
    row's off-diagonal absolute sum, and the matrix symmetrized by averaging
    with its transpose; (4) diagonal entries drawn uniformly in [1, 1.5].
    Step (3) does not give diagonal dominance: after the averaging a row's
    off-diagonal absolute sum can reach (1 + degree) / 3. Positive
    definiteness comes from a Cholesky check of each diagonal draw, with up
    to ``_DIAGONAL_REDRAWS`` redraws of the diagonal. The edge set is the
    support drawn in step (1).
    """
    _check_truth(d, edge_prob)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(d, k=1)
    present = rng.random(rows.size) < edge_prob
    n_edges = int(present.sum())
    magnitudes = rng.uniform(0.5, 1.0, size=n_edges)
    signs = np.where(rng.random(n_edges) < 0.5, 1.0, -1.0)

    omega = np.zeros((d, d))
    omega[rows[present], cols[present]] = signs * magnitudes
    omega = omega + omega.T

    row_sums = np.abs(omega).sum(axis=1)
    scale = np.where(row_sums > 0, 1.5 * row_sums, 1.0)
    omega = omega / scale[:, None]
    omega = symmetrize(omega)

    for _ in range(_DIAGONAL_REDRAWS + 1):
        omega[np.diag_indices(d)] = rng.uniform(1.0, 1.5, size=d)
        try:
            np.linalg.cholesky(omega)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise GenerationError(
            f"could not produce a positive definite matrix after {_DIAGONAL_REDRAWS} "
            f"diagonal redraws (seed {seed})"
        )

    sigma = symmetrize(np.linalg.inv(omega))
    return GroundTruth(omega=omega, edges=EdgeSet.from_upper(d, present), sigma=sigma)


def sample_gaussian(truth: GroundTruth, n: int, seed: int) -> DataMatrix:
    """Draw n i.i.d. rows from the zero-mean Gaussian with covariance omega^-1.

    Uses the Cholesky factor of sigma applied to standard normal rows, so a
    fixed seed yields a reproducible stream whose first rows agree across
    different n.
    """
    if n < 2:
        raise InvalidInputError(f"n must be >= 2, got {n}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    d = truth.sigma.shape[0]
    factor = np.linalg.cholesky(truth.sigma)
    standard = rng.standard_normal((n, d))
    return DataMatrix(standard @ factor.T)


@dataclass
class ReplicateRecord:
    """One row of the tidy experiment report.

    The fields after ``replicate`` are the metrics; None marks an undefined
    cell, such as a method that failed or does not apply at this n.
    """

    method: str
    n: int
    alpha: float | None
    replicate: int
    fwer_indicator: int | None = None
    tpr: float | None = None
    fpr: float | None = None
    mcc: float | None = None
    jaccard_vs_truth: float | None = None
    jaccard_robsel_holm: float | None = None
    lam: float | None = None
    runtime_seconds: float | None = None


@dataclass
class CellSummary:
    """Per-(method, n, alpha) means and Monte-Carlo standard errors."""

    method: str
    n: int
    alpha: float | None
    replicates: int
    means: dict = field(default_factory=dict)
    standard_errors: dict = field(default_factory=dict)


_RECORD_FIELDS = tuple(f.name for f in fields(ReplicateRecord))
REPLICATE_COLUMNS = tuple("lambda" if name == "lam" else name for name in _RECORD_FIELDS)
# Summary column -> the metric field it averages. The metrics follow the
# four fields that key a row; the mean of the FWER indicator is the "fwer".
_SUMMARY_METRICS = {
    "fwer" if name == "fwer_indicator" else column: name
    for name, column in zip(_RECORD_FIELDS[4:], REPLICATE_COLUMNS[4:])
}


@dataclass
class ExperimentReport:
    """Tidy replicate-level records plus per-cell aggregates."""

    plan: ExperimentPlan
    records: list

    def summaries(self) -> list[CellSummary]:
        cells: dict[tuple, list[ReplicateRecord]] = {}
        for record in self.records:
            cells.setdefault((record.method, record.n, record.alpha), []).append(record)

        def aggregate(values):
            defined = [v for v in values if v is not None]
            if not defined:
                return None, None
            mean = float(np.mean(defined))
            if len(defined) < 2:
                return mean, None
            se = float(np.std(defined, ddof=1) / math.sqrt(len(defined)))
            return mean, se

        out = []
        for (method, n, alpha), records in sorted(
            cells.items(), key=lambda item: (item[0][0], item[0][1], _alpha_key(item[0][2]))
        ):
            summary = CellSummary(method=method, n=n, alpha=alpha, replicates=len(records))
            for key, name in _SUMMARY_METRICS.items():
                mean, se = aggregate([getattr(r, name) for r in records])
                summary.means[key] = mean
                summary.standard_errors[key] = se
            out.append(summary)
        return out


def _alpha_key(alpha):
    return (0, 0.0) if alpha is None else (1, alpha)


def _child_seed(*keys) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint64)[0])


def _cells(plan) -> list:
    """The (method, alpha) cells of one replicate, in report order."""
    return [
        (method, alpha)
        for method in plan.methods
        for alpha in ([None] if method in TUNING_METHODS else plan.alphas)
    ]


def _select(method, data, A, plan, keys) -> list:
    """(alpha, lambda, edges or None) for each cell of ``method`` on one
    sample; a cell without edges is fitted by the caller at its lambda."""
    if method == "robsel":
        config = RobselConfig(alpha=plan.alphas[0], B=plan.B, seed=_child_seed(*keys, 2))
        samples = bootstrap_rwp_samples(data, config)
        return [
            (alpha, float(samples[order_statistic_rank(plan.B, alpha) - 1]), None)
            for alpha in plan.alphas
        ]
    if method in ADJUSTMENT_METHODS:
        # testing_select's steps on its (A, n), with one p-value matrix for every alpha.
        _check_testable(data.n, len(A))
        pvalues = unadjusted_pvalues(partial_correlations(A), data.n)
        adjusted = adjust_pvalues(pvalues, method)
        return [(alpha, None, _rejections(adjusted, len(A), alpha)) for alpha in plan.alphas]
    grid = lambda_grid(A, plan.grid_size)
    base = SolverConfig.from_settings(plan, 0.0)
    if method == "cv":
        tuned = cv_select(
            data, folds=plan.folds, grid=grid, solver_config=base, seed=_child_seed(*keys, 3)
        )
    else:
        tuned = ebic_select(A, grid, data.n, gamma=plan.gamma, solver_config=base,
                            zero_tol=plan.zero_tol)
    return [(None, tuned.chosen_lambda, None)]


def _run_replicate(plan, truth, n, replicate, record_timings) -> list:
    """All method cells for one (n, replicate) pair; pure given its seeds."""
    keys = (plan.seed, n, replicate)
    data = sample_gaussian(truth, n, _child_seed(*keys, 1))
    A = _cov(data.values)

    def fail(method, alpha, exc):
        _warn(
            f"{method} failed at (n={n}, r={replicate}"
            f"{'' if alpha is None else f', alpha={alpha}'}): {exc}"
        )

    # (method, alpha) -> (edges, lambda or None, runtime)
    outcomes: dict[tuple, tuple] = {}
    for method in [m for m in KNOWN_METHODS if m in plan.methods]:
        start = time.perf_counter()
        try:
            cells = _select(method, data, A, plan, keys)
        except NotApplicableError:
            continue  # emitted as not-applicable cells
        except Exception as exc:
            fail(method, None, exc)
            continue
        select_share = (time.perf_counter() - start) / len(cells)
        for alpha, lam, edges in cells:
            start = time.perf_counter()
            if edges is None:
                try:
                    fit = glasso(A, SolverConfig.from_settings(plan, lam))
                    edges = edges_from_precision(fit.precision, plan.zero_tol)
                except Exception as exc:
                    fail(method, alpha, exc)
                    continue
            outcomes[(method, alpha)] = (edges, lam, select_share + time.perf_counter() - start)

    records = []
    for method, alpha in _cells(plan):
        if (method, alpha) not in outcomes:
            records.append(ReplicateRecord(method, n, alpha, replicate))
            continue
        edges, lam, runtime = outcomes[(method, alpha)]
        scores = metrics_from_confusion(confusion(edges, truth.edges))
        holm = outcomes.get(("holm", alpha)) if method == "robsel" else None
        records.append(
            ReplicateRecord(
                method,
                n,
                alpha,
                replicate,
                fwer_indicator=scores.fwer_indicator,
                tpr=scores.tpr,
                fpr=scores.fpr,
                mcc=scores.mcc,
                jaccard_vs_truth=scores.jaccard,
                jaccard_robsel_holm=None if holm is None else jaccard(edges, holm[0]),
                lam=lam,
                runtime_seconds=runtime if record_timings else None,
            )
        )
    return records


def run_experiment(
    plan: ExperimentPlan, threads: int = 1, record_timings: bool = False, log=None
) -> ExperimentReport:
    """Run the replicated sweep ``plan`` on up to ``threads`` pool threads
    and collect the tidy report.

    Per-replicate RNG streams are keyed by (seed, n, replicate), so the
    report does not depend on the parallel schedule. A failure is recorded
    as not-applicable cells, only those of the method (or, for a fit, the
    alpha) it happened in, and never aborts the sweep. ``record_timings``
    fills ``runtime_seconds``; ``log``, if given, receives one line per
    (n, replicate) task.
    """
    truth = generate_precision(plan.d, plan.edge_prob, plan.seed)
    tasks = [(n, r) for n in plan.sample_sizes for r in range(1, plan.replications + 1)]

    def one_task(task):
        n, replicate = task
        try:
            records = _run_replicate(plan, truth, n, replicate, record_timings)
        except Exception as exc:  # record the failed cell, keep sweeping
            _warn(f"replicate (n={n}, r={replicate}) failed: {exc}")
            records = [
                ReplicateRecord(method, n, alpha, replicate)
                for method, alpha in _cells(plan)
            ]
        if log is not None:
            log(f"cell n={n} replicate={replicate}: {len(records)} rows")
        return records

    chunks = parallel_map(one_task, tasks, threads)

    records = [record for chunk in chunks for record in chunk]
    records.sort(
        key=lambda r: (r.method, r.n, _alpha_key(r.alpha), r.replicate)
    )
    return ExperimentReport(plan=plan, records=records)


def write_replicates_csv(report: ExperimentReport, path) -> None:
    """Write the tidy replicate-level report; empty fields mark undefined cells."""
    rows = ([getattr(r, name) for name in _RECORD_FIELDS] for r in report.records)
    write_csv(path, REPLICATE_COLUMNS, rows)


def write_summary_csv(report: ExperimentReport, path) -> None:
    """Write per-cell means and Monte-Carlo standard errors."""
    key = [f.name for f in fields(CellSummary)[:4]]  # method, n, alpha, replicates
    header = key + [name for metric in _SUMMARY_METRICS for name in (metric, f"{metric}_se")]
    rows = (
        [getattr(cell, name) for name in key]
        + [
            value
            for metric in _SUMMARY_METRICS
            for value in (cell.means[metric], cell.standard_errors[metric])
        ]
        for cell in report.summaries()
    )
    write_csv(path, header, rows)


def _plan_defaults() -> dict:
    """Plan-file key -> its default, which also gives the type the key is
    parsed as."""
    defaults = asdict(ExperimentPlan())
    defaults["bootstrap"] = defaults.pop("B")
    return defaults


def _parse_plan_value(key, raw, default):
    """``raw`` read as the type of ``default``; a list as a comma-separated
    list of the type of its first item."""
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if isinstance(default, list):
            kind = type(default[0])
            return [kind(tok.strip()) for tok in raw.split(",") if tok.strip()]
        return type(default)(raw)
    except ValueError:
        raise InvalidInputError(f"invalid value for {key!r}: {raw!r}") from None


def load_experiment_config(path) -> ExperimentPlan:
    """Parse a 'key = value' experiment plan file into an ExperimentPlan.

    Text from a '#' to the end of its line is a comment, and blank lines are
    ignored; lists are comma-separated. Each key is an ExperimentPlan field
    (``bootstrap`` sets ``B``), given at most once; a key the file omits
    keeps the field's default.
    """
    defaults = _plan_defaults()
    values = dict(defaults)
    seen = {}
    with open(path, encoding="utf-8") as handle:
        for ln, line in enumerate(handle, start=1):
            stripped = line.partition("#")[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise InvalidInputError(f"{path}: line {ln} is not 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in defaults:
                raise InvalidInputError(f"{path}: unknown key {key!r} on line {ln}")
            if key in seen:
                raise InvalidInputError(
                    f"{path}: key {key!r} on line {ln} repeats line {seen[key]}"
                )
            seen[key] = ln
            values[key] = _parse_plan_value(key, raw, defaults[key])
    values["B"] = values.pop("bootstrap")
    return ExperimentPlan(**values)
