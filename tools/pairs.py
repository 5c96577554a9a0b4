"""Alternated benchmark pairs: run ``bench/run.py`` on a committed revision
and on the working tree, one pair at a time, and summarize each end-to-end
metric.

    python tools/pairs.py REV [--json PATH]

REV is exported the way ``tools/golden.py`` exports it. The tool refuses to
run when any file under ``bench/`` differs between REV and the working tree,
because both sides must run the same benchmark. For every workload it runs
ten pairs at full size; pair i runs
``bench/run.py --workload W --seed i --seconds S`` once in each tree, each
with its own ``src``, for i = 1..10; REV runs first in odd pairs and the
working tree first in even ones. Workloads, the run length S and each
metric's direction and bound come from ``BENCHMARK.json``.

For each workload and metric the summary gives each side's median and
quartiles, the relative change of the medians, the working tree's wins
(ties count for neither side), and two verdicts:

- ``gain``: there are at least ten pairs, the working tree wins at least
  nine tenths of them, and its median is better than REV's by more than
  REV's interquartile range;
- ``within_bound``: its median is no worse than REV's by more than the
  metric's bound.

``--json PATH`` writes the same summary with every pair's values. The exit
status is 0 when every run of both sides reported correct answers, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from golden import ROOT, collect, differences, export

SIDES = ("rev", "work")
PAIRS = 10  # the fewest pairs from which a gain may be claimed
FIRST_SEED = 1


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def bench_files(tree: Path) -> dict:
    """The files under ``tree/bench`` that the benchmark ships, by path."""
    return {path: data for path, data in collect(tree / "bench").items()
            if "__pycache__" not in path.split("/")}


def summarize(rev, work, better: str, bound: float) -> dict:
    """Summary of one metric over pairs: ``rev[i]`` and ``work[i]`` are the
    two sides' values in pair i; ``better`` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    side = {}
    for name, values in zip(SIDES, (rev, work)):
        side[name] = dict(zip(("q1", "median", "q3"), np.quantile(values, (0.25, 0.5, 0.75)).tolist()))
    wins = sum(sign * (w - r) > 0 for r, w in zip(rev, work))
    losses = sum(sign * (w - r) < 0 for r, w in zip(rev, work))
    rev_med, work_med = side["rev"]["median"], side["work"]["median"]
    iqr = side["rev"]["q3"] - side["rev"]["q1"]
    change = work_med / rev_med - 1.0 if rev_med else None
    return {
        **side,
        "change": change,
        "wins": wins,
        "losses": losses,
        "pairs": len(rev),
        "gain": len(rev) >= PAIRS and wins >= 0.9 * len(rev) and sign * (work_med - rev_med) > iqr,
        "within_bound": change is None or -sign * change <= bound,
    }


def run_bench(tree: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The last line of one ``bench/run.py`` run in ``tree``, as a dict."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--size", size],
        cwd=tree, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(trees: dict, workloads, pairs: int, seconds: float, seed: int, size: str,
              metrics: dict, log=print) -> dict:
    """Run ``pairs`` alternated pairs per workload on ``trees`` (side ->
    checkout root) and return the runs and the summary of each metric in
    ``metrics`` (name -> its ``BENCHMARK.json`` entry)."""
    result = {}
    for workload in workloads:
        runs = []
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed + i, "first": order[0]}
            for name in order:
                out = run_bench(trees[name], workload, seed + i, seconds, size)
                run[name] = {"correct": out["correct"], "attempted": out["attempted"],
                             "failed": out["failed"],
                             **{m: v["value"] for m, v in out["metrics"].items()}}
            log(f"{workload} pair {i + 1}/{pairs} seed {seed + i}: " + "; ".join(
                f"{m} {run['rev'][m]:.4g} -> {run['work'][m]:.4g}" for m in metrics))
            runs.append(run)
        result[workload] = {
            "runs": runs,
            "metrics": {
                m: summarize([r["rev"][m] for r in runs], [r["work"][m] for r in runs],
                             entry["better"], entry["bound"])
                for m, entry in metrics.items()
            },
        }
    return result


def report(result: dict) -> str:
    lines = [f"{'workload':<11} {'metric':<12} {'rev q1/median/q3':>30} "
             f"{'work q1/median/q3':>30} {'change':>8} {'wins':>6}  gain  within_bound"]
    for workload, body in result.items():
        for metric, s in body["metrics"].items():
            sides = [" / ".join(f"{s[name][q]:.4g}" for q in ("q1", "median", "q3")) for name in SIDES]
            change = "n/a" if s["change"] is None else f"{100 * s['change']:+.1f}%"
            lines.append(f"{workload:<11} {metric:<12} {sides[0]:>30} {sides[1]:>30} {change:>8} "
                         f"{s['wins']:>2}/{s['pairs']:<3}  {str(s['gain']):<5} {s['within_bound']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree against")
    parser.add_argument("--json", type=Path, default=None, help="write the summary here")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="ggmselect-pairs-"))
    try:
        tree = scratch / "tree"
        export(args.rev, tree)
        moved = differences(bench_files(tree), bench_files(ROOT))
        if moved:
            print("error: bench/ differs between the revision and the working tree:",
                  *moved, sep="\n  ", file=sys.stderr)
            return 2
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        result = run_pairs({"rev": tree, "work": ROOT}, [w["name"] for w in bench["workloads"]],
                           PAIRS, seconds, FIRST_SEED, "full", metrics)
    finally:
        shutil.rmtree(scratch)
    print(report(result))
    if args.json is not None:
        commit = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        summary = {"rev": args.rev, "rev_commit": commit, "pairs": PAIRS, "seconds": seconds,
                   "size": "full", "workloads": result}
        args.json.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = all(run[name]["correct"] for body in result.values()
                  for run in body["runs"] for name in SIDES)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
