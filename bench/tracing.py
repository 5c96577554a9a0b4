"""Spans at ggmselect's module boundaries, recorded from outside the program.

The tracer replaces the names that calling modules bound at import time
(``ggmselect.cli.glasso``, ``ggmselect.simulation.bootstrap_rwp_samples``, ...)
with wrappers that time each call, and puts the originals back afterwards.
Nothing under ``src/`` changes. A span is named ``<module>.<function>`` after
the module that defines the function, so the layer is the part before the dot.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager

# (calling module, bound name). Each caller of a layer is listed, so a span
# is recorded wherever the CLI, tuning or the sweep enters it. Calls a module
# makes to its own functions are not boundaries and are not wrapped.
WRAPPED = (
    ("cli", "load_data_csv"),
    ("cli", "empirical_covariance"),
    ("cli", "edges_from_precision"),
    ("cli", "atomic_text_writer"),
    ("cli", "robsel_lambda"),
    ("cli", "glasso"),
    ("cli", "lambda_grid"),
    ("cli", "ebic_select"),
    ("cli", "load_experiment_config"),
    ("cli", "run_experiment"),
    # The sweep's report writers import the writer from core when called.
    ("core", "atomic_text_writer"),
    ("robsel", "bootstrap_rwp_samples"),
    ("tuning", "_cov"),
    ("tuning", "glasso"),
    ("tuning", "ebic_score"),
    ("tuning", "edges_from_precision"),
    ("simulation", "generate_precision"),
    ("simulation", "sample_gaussian"),
    ("simulation", "_cov"),
    ("simulation", "bootstrap_rwp_samples"),
    ("simulation", "glasso"),
    ("simulation", "edges_from_precision"),
    ("simulation", "partial_correlations"),
    ("simulation", "unadjusted_pvalues"),
    ("simulation", "adjust_pvalues"),
    ("simulation", "confusion"),
    ("simulation", "metrics_from_confusion"),
    ("simulation", "jaccard"),
)

ROOT_SPAN = "cli.main"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "counts")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _observe(span, name, args, kwargs, result) -> None:
    """Counts read from a call's arguments and result. A call that raises
    records none."""
    if name == "solver.glasso":
        span.counts = {
            "sweeps": result.sweeps_used,
            "kkt": result.kkt_residual,
            "kkt_tol": args[1].kkt_tol,
            "converged": result.converged,
        }
    elif name == "robsel.bootstrap_rwp_samples":
        span.counts = {"replicates": args[1].B}
    elif name == "tuning.ebic_select":
        span.counts = {"grid_points": len(args[1])}


class Tracer:
    """Keeps spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[Span] = []
        self._restore = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # A pool thread has no open span of its own: its caller is the span
        # open on the op's thread, which waits on the pool.
        parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
        span = Span()
        span.name, span.op, span.thread = name, self.op, threading.get_ident()
        span.parent = None if parent is None else parent.id
        span.end, span.counts = None, {}
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one op, opened on the thread that runs it."""
        self.op = op_id
        self._op_stack = self._stack()
        try:
            with self.span(ROOT_SPAN) as root:
                yield root
        finally:
            self._op_stack = []
            self.op = None

    def _wrap(self, original):
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        tracer = self
        if name == "core.atomic_text_writer":

            @contextmanager
            def writer(path, *args, **kwargs):
                with tracer.span(name) as span:
                    with original(path, *args, **kwargs) as handle:
                        yield handle
                span.counts = {"bytes": os.path.getsize(path)}

            return writer

        if name == "simulation.run_experiment":

            @functools.wraps(original)
            def timed_with_cpu(*args, **kwargs):
                with tracer.span(name) as span:
                    cpu = time.process_time()
                    result = original(*args, **kwargs)
                    span.counts = {
                        "cpu_s": time.process_time() - cpu,
                        "threads": kwargs.get("threads", 1),
                    }
                return result

            return timed_with_cpu

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                _observe(span, name, args, kwargs, result)
            return result

        return timed

    def install(self) -> None:
        for module_name, attr in WRAPPED:
            module = importlib.import_module(f"ggmselect.{module_name}")
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def solve_problems(spans, op_id) -> list[str]:
    """Solves of op ``op_id`` that raised, did not converge, or certified a
    KKT residual above the kkt_tol they were given."""
    out = []
    for span in spans:
        if span.op == op_id and span.name == "solver.glasso":
            c = span.counts
            if not c:
                out.append(f"solve {span.id} raised")
            elif not c["converged"] or not c["kkt"] <= c["kkt_tol"]:
                out.append(
                    f"solve {span.id}: converged = {c['converged']}, "
                    f"kkt residual {c['kkt']:.3e}, kkt_tol {c['kkt_tol']}"
                )
    return out


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (max(span.start, spans[span.parent].start), min(span.end, spans[span.parent].end))
            )
    return {
        span.id: (span.end - span.start) - _covered(children.get(span.id, ()))
        for span in spans
    }


# name -> (unit, what it is, per op unless said otherwise)
LAYER_METRICS = {
    "core.load_csv_s": ("s", "load_data_csv time per op"),
    "core.cov_s": ("s", "empirical covariance time per op, outside the bootstrap"),
    "core.edges_s": ("s", "edges_from_precision time per op"),
    "robsel.bootstrap_s": ("s", "bootstrap_rwp_samples time per op"),
    "robsel.bootstrap_share": ("ratio", "bootstrap time over busy time"),
    "robsel.replicates_per_s": ("1/s", "bootstrap replicates per bootstrap second"),
    "solver.glasso_s": ("s", "glasso time per op"),
    "solver.glasso_share": ("ratio", "glasso time over busy time"),
    "solver.solves": ("count", "glasso calls per op"),
    "solver.sweeps": ("count", "column sweeps per op"),
    "solver.s_per_sweep": ("s", "glasso time per column sweep"),
    "solver.kkt_max": ("1", "largest certified KKT residual of any solve"),
    "solver.nonconverged": ("count", "solves with converged = false, all ops"),
    "tuning.ebic_self_s": ("s", "ebic_select, ebic_score, lambda_grid self time per op"),
    "tuning.grid_points": ("count", "penalties on the EBIC path per op"),
    "testing.select_s": ("s", "partial correlations, p-values, adjustment per op"),
    "simulation.experiment_s": ("s", "run_experiment wall time per op"),
    "simulation.cells": ("count", "(n, replicate) cells per op"),
    "simulation.sample_s": ("s", "ground truth and sample generation per op"),
    "simulation.failed_cells": ("count", "cells reported failed, all ops"),
    "simulation.cpu_util": ("ratio", "process CPU over wall x threads in run_experiment"),
    "metrics.score_s": ("s", "confusion, metrics_from_confusion, jaccard per op"),
    "cli.write_s": ("s", "time inside atomic_text_writer per op"),
    "cli.output_bytes": ("bytes", "bytes written per op"),
    "cli.self_s": ("s", "op wall time outside every child span, per op"),
    "trace.overhead_frac": ("ratio", "traced op_s_p50 / untraced op_s_p50 - 1"),
}


def layer_metrics(spans, failed_cells: int, overhead_frac: float) -> dict:
    """Per-layer metrics of the traced ops, from their spans."""
    own = self_times(spans)
    ops = sum(1 for s in spans if s.name == ROOT_SPAN)

    def total(prefix, key=None):
        chosen = [s for s in spans if s.name.startswith(prefix)]
        if key is None:
            return sum(s.end - s.start for s in chosen)
        return sum(key(s) for s in chosen)

    busy = sum(own.values())
    boot = total("robsel.bootstrap_rwp_samples")
    solves = [s for s in spans if s.name == "solver.glasso"]
    glasso_s = total("solver.glasso")
    sweeps = sum(s.counts.get("sweeps", 0) for s in solves)
    experiments = [
        s for s in spans if s.name == "simulation.run_experiment" and s.counts
    ]
    wall_threads = sum((s.end - s.start) * s.counts["threads"] for s in experiments)
    values = {
        "core.load_csv_s": total("core.load_data_csv") / ops,
        "core.cov_s": total("core.empirical_covariance") / ops + total("core._cov") / ops,
        "core.edges_s": total("core.edges_from_precision") / ops,
        "robsel.bootstrap_s": boot / ops,
        "robsel.bootstrap_share": boot / busy,
        "robsel.replicates_per_s": (
            total("robsel.bootstrap_rwp_samples", lambda s: s.counts.get("replicates", 0))
            / boot
            if boot
            else 0.0
        ),
        "solver.glasso_s": glasso_s / ops,
        "solver.glasso_share": glasso_s / busy,
        "solver.solves": len(solves) / ops,
        "solver.sweeps": sweeps / ops,
        "solver.s_per_sweep": glasso_s / sweeps if sweeps else 0.0,
        "solver.kkt_max": max((s.counts.get("kkt", 0.0) for s in solves), default=0.0),
        "solver.nonconverged": sum(1 for s in solves if not s.counts.get("converged")),
        "tuning.ebic_self_s": sum(own[s.id] for s in spans if s.name.startswith("tuning.")) / ops,
        "tuning.grid_points": (
            total("tuning.ebic_select", lambda s: s.counts.get("grid_points", 0)) / ops
        ),
        "testing.select_s": total("testing.") / ops,
        "simulation.experiment_s": total("simulation.run_experiment") / ops,
        "simulation.cells": total("simulation.sample_gaussian", lambda s: 1) / ops,
        "simulation.sample_s": (
            total("simulation.generate_precision") + total("simulation.sample_gaussian")
        ) / ops,
        "simulation.failed_cells": failed_cells,
        "simulation.cpu_util": (
            sum(s.counts["cpu_s"] for s in experiments) / wall_threads if wall_threads else 0.0
        ),
        "metrics.score_s": total("metrics.") / ops,
        "cli.write_s": total("core.atomic_text_writer") / ops,
        "cli.output_bytes": (
            total("core.atomic_text_writer", lambda s: s.counts.get("bytes", 0)) / ops
        ),
        "cli.self_s": sum(own[s.id] for s in spans if s.name == ROOT_SPAN) / ops,
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
