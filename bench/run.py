#!/usr/bin/env python3
"""ggmselect benchmark: one closed-loop client running CLI operations.

    python3 bench/run.py --workload robsel-d50 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each op is one in-process ``ggmselect.cli.main([...])`` call on a
distinct input made from ``--seed``. Ops run back to back until their summed
wall time reaches ``--seconds``. Every op passes the answer gate or counts as
failed. The last line of standard output is the JSON result: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced pass over the same inputs. See bench/README.md.
"""

import argparse
import ctypes
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout

# The BLAS thread count is pinned before numpy is first imported (in main),
# in this process and in the interpreters started to time the import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GGMSELECT_THREADS", None)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
#: Seed whose first ops have stored reference answers.
REFERENCE_SEED = 0
#: Fresh interpreters timed per run for setup_s, which is their median. They
#: are spread over the run, between ops, because the shared host changes
#: speed for seconds to minutes at a time: a median of 3 taken in one block
#: spread by up to 0.27 over seeds. Each costs about 1.4 s of the run's wall
#: time, so there are 5 and not more. This process imports the package
#: first, so the bytecode cache is already written.
IMPORT_RUNS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="> 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; tiny is for the benchmark's own tests",
    )
    parser.add_argument(
        "--record-reference", type=int, default=0, metavar="K",
        help="store the answers of the first K ops of this run as the "
        "reference for --seed and --size instead of comparing",
    )
    return parser.parse_args(argv)


def blas_threads():
    """(library, thread count) of the OpenBLAS numpy loaded, read from the
    library itself; None where it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line})
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return os.path.basename(path), getter()
    return (os.path.basename(paths[0]) if paths else None), None


def git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library, threads = blas_threads()
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba,
        "cd_backend": "numba" if numba else "pure-python",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": library,
        "blas_threads": threads,
        "blas_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def time_import():
    """Seconds to import ggmselect in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import ggmselect; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_op(cli, op, tracer=None, op_id=None):
    """Run one op in-process: (wall seconds, exit code, stdout, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(op["argv"])
                else:
                    with tracer.op_span(op_id):
                        rc = cli.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crashing op is a failed op; keep measuring
                rc = "exception"
                err.write(traceback.format_exc())
            wall = time.perf_counter() - start
    warned = [f"{w.category.__name__}: {w.message}" for w in caught]
    return wall, rc, out.getvalue(), err.getvalue(), warned


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it, or None."""
    ordered = sorted(latencies)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"value": ordered[k - 1], "percentile": 100.0 * k / len(ordered),
            "samples": len(ordered)}


def main(argv=None):
    args = parse_args(argv)
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "ggmselect", "__init__.py")):
        print(f"error: no ggmselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import workloads
    import tracing
    from ggmselect import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    cfg = workloads.SIZES[args.size][args.workload]
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    expected = []
    if args.seed == REFERENCE_SEED and not args.record_reference:
        expected = reference.get(args.size, {}).get(args.workload, [])

    setup_samples = []
    work = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = tracing.Tracer() if args.trace else None
    problems, answers = [], []
    attempted = failed = failed_cells = 0
    untraced, traced = [], []

    def run_checked(op, index, traced_run):
        """Run and check one op: (wall seconds, answer, problems)."""
        nonlocal attempted, failed_cells
        if traced_run:
            tracer.install()
        try:
            result = run_op(cli, op, tracer if traced_run else None, index)
        finally:
            if traced_run:
                tracer.uninstall()
        wall, rc, out, err, warned = result
        answer, bad = workloads.check(args.workload, op, rc, out, err, warned)
        if traced_run:
            bad += tracing.solve_problems(tracer.spans, index)
        failed_cells += sum(1 for line in err.splitlines() if line.startswith("warning:"))
        attempted += 1
        return wall, answer, bad

    try:
        warm = workloads.prepare(
            args.workload, workloads.SIZES["tiny"][args.workload], args.seed, -1,
            os.path.join(work, "warm"),
        )
        run_op(cli, warm)
        spent, index = 0.0, 0
        while spent < args.seconds:
            op = workloads.prepare(
                args.workload, cfg, args.seed, index, os.path.join(work, f"op{index}"),
            )
            # A traced run times every input untraced and traced, in
            # alternating order, so the overhead compares equal inputs.
            order = [False] if tracer is None else [index % 2 == 1, index % 2 == 0]
            results = {}
            for traced_run in order:
                wall, answer, bad = run_checked(op, index, traced_run)
                results[traced_run] = (answer, bad)
                (traced if traced_run else untraced).append(wall)
                spent += wall
            answer, bad = results[False]
            if index < len(expected) and answer is not None:
                bad += [f"reference: {p}" for p in workloads.compare(answer, expected[index])]
            if tracer is not None and results[True][0] != answer:
                results[True][1].append("traced and untraced answers differ")
            for _, bad in results.values():
                failed += bool(bad)
                problems.extend(f"op {index}: {p}" for p in bad)
            answers.append(answer)
            workloads.remove_outputs(op)
            index += 1
            if not args.trace and len(setup_samples) < min(
                IMPORT_RUNS, IMPORT_RUNS * spent / args.seconds
            ):
                setup_samples.append(time_import())
        while not args.trace and len(setup_samples) < IMPORT_RUNS:
            setup_samples.append(time_import())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_reference:
        reference.setdefault(args.size, {})[args.workload] = answers[: args.record_reference]
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")

    if tracer is None:
        metrics = {
            "ops_per_s": (attempted - failed) / sum(untraced),
            "op_s_p50": statistics.median(untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        metrics = tracing.layer_metrics(tracer.spans, failed_cells, overhead)
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump([s.as_dict() for s in tracer.spans], handle)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "client": "closed loop, 1 client, 1 process",
        "ops": len(untraced),
        "op_s": untraced,
        "failed_frac": failed / attempted if attempted else None,
        "op_s_tail": tail(untraced),
        "setup_s_samples": setup_samples or None,
        "answer_digest": workloads.digest(answers),
        "reference_ops_checked": min(len(expected), len(answers)),
        "problems": problems[:20],
        "environment": environment(),
    }
    if tracer is not None:
        detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(detail, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
