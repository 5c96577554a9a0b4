"""Self-tests of the benchmark, mostly at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Run from the root of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(*args, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    done = subprocess.run(
        [sys.executable, script, "--size", "tiny", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    code, lines, err = run_bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert code == 0, err
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    detail = json.loads(lines[0])
    assert detail["environment"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert detail["failed_frac"] == 0.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_seed_matches_stored_answers(workload):
    code, lines, err = run_bench("--workload", workload, "--seed", "0", "--trace", "0")
    assert code == 0, err
    assert result_of(lines)["correct"]
    assert json.loads(lines[0])["reference_ops_checked"] >= 1


def copy_bench(tmp_path):
    """A copy of the benchmark under tmp_path, without the sources."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path / "bench" / "run.py")


def test_corrupted_reference_trips_the_gate(tmp_path):
    script = copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    reference["tiny"]["robsel-d50"][0]["lambda"] *= 1.001
    path.write_text(json.dumps(reference), encoding="utf-8")
    code, lines, err = run_bench(
        "--workload", "robsel-d50", "--seed", "0", cwd=tmp_path, script=script
    )
    assert code == 0, err
    result = result_of(lines)
    assert not result["correct"] and 1 <= result["failed"] <= result["attempted"]
    assert any("reference" in p for p in json.loads(lines[0])["problems"])


def test_wrong_answer_is_caught_by_the_checks():
    op = {"prefix": "unused", "argv": []}
    answer, problems = workloads.check("ebic-d100", op, 1, "", "error: boom", [])
    assert answer is None and problems
    problems = workloads.compare(
        {"lambda": 0.2, "grid": [1.0], "scores": [10.0]},
        {"lambda": 0.2, "grid": [1.0], "scores": [10.01]},
    )
    assert problems


def test_every_block_of_ops_visits_every_stratum_once_and_evenly():
    for seed in (0, 1, 2):
        order = [workloads.stratum("ebic-d100", seed, i, 8) for i in range(24)]
        for start in (0, 8, 16):
            block = order[start : start + 8]
            assert sorted(block) == list(range(8))
            # The first 2 ops fall in different halves, the first 4 in
            # different quarters.
            assert sorted(k // 4 for k in block[:2]) == [0, 1]
            assert sorted(k // 2 for k in block[:4]) == [0, 1, 2, 3]


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_stored_strata_are_the_octiles_of_the_ratio(size):
    cfg = workloads.SIZES[size]["ebic-d100"]
    draws = 1000 if size == "full" else 4000
    octiles = workloads.ratio_quantiles(cfg["d"], cfg["edge_prob"], draws, 8)
    assert octiles == pytest.approx(cfg["strata"], abs=0.02)


def test_stratified_inputs_order_by_their_stratum(tmp_path):
    # The program sees the sample, whose s_max/mean-variance ratio follows
    # the ground truth's sigma_ratio up to sampling error.
    cfg = workloads.SIZES["full"]["ebic-d100"]
    strata, ratios = [], []
    for index in range(8):
        op = workloads.prepare("ebic-d100", cfg, 5, index, str(tmp_path / f"op{index}"))
        strata.append(workloads.stratum("ebic-d100", 5, index, 8))
        ratios.append(workloads.s_max(op["A"]) / float(np.mean(np.diag(op["A"]))))
    ranks = np.argsort(np.argsort(ratios))
    assert np.corrcoef(strata, ranks)[0, 1] > 0.8


def _span(id, name, start, end, parent=None, counts=None):
    span = tracing.Span()
    span.id, span.name, span.start, span.end = id, name, start, end
    span.parent, span.op, span.thread, span.counts = parent, 0, 0, counts or {}
    return span


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "simulation.run_experiment", 1.0, 9.0, parent=0),
        _span(2, "solver.glasso", 2.0, 6.0, parent=1),  # two pool threads
        _span(3, "solver.glasso", 4.0, 8.0, parent=1),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 2.0, 1: 2.0, 2: 4.0, 3: 4.0}


def test_traced_gate_flags_unconverged_and_uncertified_solves():
    ok = {"converged": True, "kkt": 5e-7, "kkt_tol": 1e-6, "sweeps": 3}
    spans = [
        _span(0, "solver.glasso", 0.0, 1.0, counts=ok),
        _span(1, "solver.glasso", 1.0, 2.0, counts=dict(ok, converged=False)),
        _span(2, "solver.glasso", 2.0, 3.0, counts=dict(ok, kkt=2e-6)),
        _span(3, "solver.glasso", 3.0, 4.0),  # raised
    ]
    problems = tracing.solve_problems(spans, 0)
    assert [p.split()[1].rstrip(":") for p in problems] == ["1", "2", "3"]


def test_fails_without_the_sources(tmp_path):
    code, lines, _ = run_bench(
        "--workload", "robsel-d50", "--seed", "1", cwd=tmp_path, script=copy_bench(tmp_path)
    )
    assert code != 0
    assert not lines
