"""Command-line interface: data ingestion, method dispatch, experiment
execution, and result emission.

All subcommands are deterministic given --seed and, while NumPy's BLAS runs
on one thread, independent of --threads; they write output files atomically
(write-then-rename). Real numbers are printed with 12 significant digits so
reruns on one BLAS thread are diff-stable.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from dataclasses import asdict, replace

from .core import (
    DataMatrix,
    _cells,
    _warn,
    atomic_text_writer,  # kept bound: bench/tracing.py wraps cli.atomic_text_writer
    empirical_covariance,
    edges_from_precision,
    load_data_csv,
    write_csv,
)
from .errors import GgmSelectError, InvalidInputError
from .metrics import (
    edges_from_names,
    load_interaction_pairs,
    validated_edge_report,
)
from .robsel import RobselConfig, robsel_lambda
from .simulation import (
    generate_precision,
    load_experiment_config,
    run_experiment,
    sample_gaussian,
    write_replicates_csv,
    write_summary_csv,
)
from .solver import SolverConfig, _check_variances, glasso
from .testing import ADJUSTMENT_METHODS, testing_select
from .tuning import (
    DEFAULT_FOLDS,
    DEFAULT_GAMMA,
    DEFAULT_GRID_SIZE,
    TUNING_METHODS,
    cv_select,
    ebic_select,
    lambda_grid,
)

USAGE_ERROR = 2
FAILURE = 1

THREADS_ENV_VAR = "GGMSELECT_THREADS"


def _default_threads(parser) -> int:
    """``--threads`` when the flag is absent: $GGMSELECT_THREADS, or 1 when
    the variable is unset or empty."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        threads = int(raw) if raw else 1
    except ValueError:
        threads = 0
    if threads < 1:
        parser.error(f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}")
    return threads


_EDGE_COLUMNS = ("node_i", "node_j", "precision_value")


def _write_edges(prefix, names, edges, precision=None) -> None:
    """Write ``<prefix>.edges.csv``, one row per edge; the value column is
    empty without a ``precision`` matrix, as for testing, which has none."""
    write_csv(
        f"{prefix}.edges.csv",
        _EDGE_COLUMNS,
        ((names[i], names[j], None if precision is None else precision[i, j]) for i, j in edges),
    )


def _report(fields: dict, path=None) -> None:
    """Print one ``name = value`` line per field and, given ``path``, write
    the same fields as a one-row CSV; values are formatted as CSV cells."""
    for name, text in zip(fields, _cells(fields.values())):
        print(f"{name} = {text}")
    if path is not None:
        write_csv(path, fields, [fields.values()])


def _load_input(args) -> DataMatrix:
    data = load_data_csv(args.input)
    if getattr(args, "standardize", False):
        data = data.standardized()
    return data


def _fit_and_write(args, data, A, config, preamble: dict) -> None:
    """Fit the graphical lasso to ``A`` with ``config``; once it succeeds,
    report the ``preamble`` fields and the fit summary and write the
    precision matrix and the edge list."""
    result = glasso(A, config)
    edges = edges_from_precision(result.precision, config.zero_tol)
    _report({**preamble, "objective": result.objective, "kkt_residual": result.kkt_residual,
             "sweeps_used": result.sweeps_used,
             "blocks": f"{len(result.block_sizes)} (largest {result.block_sizes[0]})",
             "converged": result.converged, "edges": len(edges)})
    names = data.names()
    write_csv(f"{args.output_prefix}.precision.csv", names, result.precision)
    _write_edges(args.output_prefix, names, edges, result.precision)


def _cmd_fit(args) -> int:
    data = _load_input(args)
    A = empirical_covariance(data, center=not args.no_center)
    _fit_and_write(args, data, A, SolverConfig.from_settings(args, args.lam), {"lambda": args.lam})
    return 0


def _cmd_robsel(args) -> int:
    data = _load_input(args)
    config = RobselConfig(B=args.bootstrap, seed=args.seed)
    # The solver options are checked at lambda 0 before the bootstrap, with or
    # without --no-fit, as any lambda it picks is valid. Nothing is printed or
    # written until the fit at the picked lambda succeeds, so a failed fit
    # leaves no output.
    solver_config = SolverConfig.from_settings(args, 0.0)
    if not args.no_fit:
        A = empirical_covariance(data, center=not args.no_center)
        _check_variances(A, args.penalize_diagonal)
    selection = robsel_lambda(
        data, args.alpha, config, center=not args.no_center, threads=args.threads
    )
    preamble = {"alpha": args.alpha, "lambda": selection.lam}
    if args.no_fit:
        _report(preamble)
    else:
        _fit_and_write(args, data, A, replace(solver_config, lam=selection.lam), preamble)
    write_csv(
        f"{args.output_prefix}.lambda.csv",
        ("alpha", "lambda", "order_index", "bootstrap"),
        [(args.alpha, selection.lam, selection.order_index, args.bootstrap)],
    )
    return 0


def _cmd_test(args) -> int:
    data = _load_input(args)
    A = empirical_covariance(data, center=not args.no_center)
    result = testing_select(A, data.n, alpha=args.alpha, method=args.method)
    _report({"alpha": args.alpha, "method": args.method, "edges": len(result.edges)})
    names = data.names()
    write_csv(f"{args.output_prefix}.pvalues.csv", names, result.diagnostics["pvalues"].as_matrix())
    _write_edges(args.output_prefix, names, result.edges)
    return 0


def _cmd_tune(args) -> int:
    data = _load_input(args)
    A = empirical_covariance(data, center=not args.no_center)
    grid = lambda_grid(A, args.grid_size)
    base = SolverConfig.from_settings(args, grid.s_max)
    if args.method == "cv":
        tuned = cv_select(
            data,
            folds=args.folds,
            grid=grid,
            solver_config=base,
            seed=args.seed,
            center=not args.no_center,
        )
    else:
        tuned = ebic_select(A, grid, data.n, gamma=args.gamma, solver_config=base)
    write_csv(f"{args.output_prefix}.scores.csv", ("lambda", "score"), tuned.scores)
    _report(
        {"method": args.method, "chosen_lambda": tuned.chosen_lambda},
        f"{args.output_prefix}.lambda.csv",
    )
    return 0


def _cmd_simulate(args) -> int:
    truth = generate_precision(args.d, args.edge_prob, args.seed)
    data = sample_gaussian(truth, args.n, args.seed)
    _report({"true_edges": len(truth.edges)})
    names = data.names()
    write_csv(f"{args.output_prefix}.omega.csv", names, truth.omega)
    write_csv(f"{args.output_prefix}.data.csv", names, data.values)
    return 0


def _cmd_experiment(args) -> int:
    plan = load_experiment_config(args.config)
    log = (lambda line: sys.stderr.write(line + "\n")) if args.verbose else None
    # threads= stays a keyword: bench/tracing.py reads it by name.
    report = run_experiment(plan, threads=args.threads, record_timings=args.timings, log=log)
    write_replicates_csv(report, f"{args.output_prefix}.replicates.csv")
    write_summary_csv(report, f"{args.output_prefix}.summary.csv")
    _report({"replicate_rows": len(report.records)})
    return 0


def _cmd_evaluate(args) -> int:
    estimated_pairs = _read_edge_list(args.edges)
    reference_pairs = load_interaction_pairs(args.reference)
    if args.data:
        universe = load_data_csv(args.data).names()
    else:
        universe = sorted(
            {name for pair in estimated_pairs for name in pair}
            | {name for pair in reference_pairs for name in pair}
        )
        if len(universe) < 2:
            raise InvalidInputError("fewer than two distinct node names found")
    estimated = edges_from_names(estimated_pairs, universe)
    reference = edges_from_names(reference_pairs, universe)
    path = f"{args.output_prefix}.validation.csv" if args.output_prefix else None
    _report(asdict(validated_edge_report(estimated, reference)), path)
    return 0


def _read_edge_list(path) -> list[tuple[str, str]]:
    """The (node_i, node_j) pairs of an edge-list CSV. Empty rows are skipped,
    and so is the first non-empty row when it is the ``node_i,...`` header,
    the rule of the data loader."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [(r, row) for r, row in enumerate(csv.reader(handle), start=1) if row]
    if rows and rows[0][1][0] == _EDGE_COLUMNS[0]:
        rows.pop(0)
    for r, row in rows:
        if len(row) < 2:
            raise InvalidInputError(f"{path}: row {r} has fewer than 2 fields")
    return [(row[0].strip(), row[1].strip()) for _, row in rows]


def _add_common_io(parser):
    parser.add_argument("--input", "-i", required=True, help="observation CSV")
    parser.add_argument(
        "--standardize",
        action="store_true",
        help="scale each column to unit standard deviation before analysis",
    )
    parser.add_argument(
        "--no-center",
        action="store_true",
        help="skip mean-centering in covariance computation",
    )
    parser.add_argument(
        "--output-prefix",
        "-o",
        default=None,
        help="prefix for output files (default: the input path without its extension)",
    )


def _add_solver_options(parser):
    parser.add_argument(
        "--penalize-diagonal",
        action=argparse.BooleanOptionalAction,
        default=SolverConfig.penalize_diagonal,
        help="include the diagonal in the l1 penalty (default: on)",
    )
    parser.add_argument("--kkt-tol", type=float, default=SolverConfig.kkt_tol)
    parser.add_argument("--max-sweeps", type=int, default=SolverConfig.max_sweeps)
    parser.add_argument(
        "--zero-tol",
        type=float,
        default=SolverConfig.zero_tol,
        help="absolute threshold for edge extraction",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggmselect",
        description=(
            "Gaussian graphical model selection: graphical lasso with "
            "bootstrap-selected regularization, testing and information-"
            "criterion baselines, and a simulation harness."
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"pool threads (default: ${THREADS_ENV_VAR} or 1) for robsel's bootstrap "
        "tiles and experiment's replicates; tune's cross-validation folds hold the "
        "GIL and run on one thread; while BLAS runs on one thread, results do "
        "not depend on this value",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fit", help="graphical lasso at an explicit penalty")
    _add_common_io(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_solver_options(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("robsel", help="bootstrap-select the penalty, then fit")
    _add_common_io(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument(
        "--bootstrap",
        type=int,
        default=RobselConfig.B,
        help="bootstrap replicates B; memory is the B x n resample counts, "
        "1 byte each below n = 256, 2 below n = 65536, else 4, plus one pair "
        "tile's buffers per thread, about B x 5 KB; the loop holds no centered "
        "copy of the data",
    )
    p.add_argument("--seed", type=int, default=RobselConfig.seed)
    p.add_argument(
        "--no-fit",
        action="store_true",
        help="only select the penalty; skip the graphical lasso fit",
    )
    _add_solver_options(p)
    p.set_defaults(handler=_cmd_robsel)

    p = sub.add_parser("test", help="partial-correlation testing selection")
    _add_common_io(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", choices=ADJUSTMENT_METHODS, default="holm")
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("tune", help="cross-validated or EBIC penalty selection")
    _add_common_io(p)
    p.add_argument("--method", choices=TUNING_METHODS, required=True)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_options(p)
    p.set_defaults(handler=_cmd_tune)

    p = sub.add_parser("simulate", help="generate a ground truth and a Gaussian sample")
    p.add_argument("--output-prefix", "-o", required=True, help="prefix for output files")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--edge-prob", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a replicated sweep from a plan file")
    p.add_argument("--config", required=True, help="experiment plan (key = value)")
    p.add_argument("--output-prefix", "-o", required=True)
    p.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock runtimes (makes the report non-reproducible)",
    )
    p.add_argument("--verbose", action="store_true", help="log one line per cell")
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser("evaluate", help="count estimated edges found in a reference list")
    p.add_argument("--edges", required=True, help="edge-list CSV (node_i,node_j,...)")
    p.add_argument("--reference", required=True, help="two-column interaction CSV")
    p.add_argument(
        "--data",
        default=None,
        help="observation CSV supplying the variable universe; unknown names "
        "then raise an error instead of extending the universe",
    )
    p.add_argument("--output-prefix", "-o", default=None)
    p.set_defaults(handler=_cmd_evaluate)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # One line, without the source path and line of the default format.
    _warn(str(message))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = _default_threads(parser)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if getattr(args, "output_prefix", None) is None and hasattr(args, "input"):
        stem = os.path.splitext(str(args.input))[0]
        args.output_prefix = stem if stem else f"{args.input}.out"
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.handler(args)
        except (GgmSelectError, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return USAGE_ERROR if isinstance(exc, (InvalidInputError, OSError)) else FAILURE


if __name__ == "__main__":
    sys.exit(main())
