"""``tools/pairs.py``, the alternated benchmark pairs: its summary on fixed
numbers, and one tiny pair of the working tree against itself."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("ggmselect_pairs", TOOLS / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_arithmetic_on_fixed_numbers(pairs):
    rev = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    work = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 0.5]
    higher = pairs.summarize(rev, work, "higher", 0.25)
    assert higher["rev"] == {"q1": 3.25, "median": 5.5, "q3": 7.75}
    assert higher["work"] == {"q1": 8.25, "median": 10.5, "q3": 12.75}
    assert higher["change"] == pytest.approx(10.5 / 5.5 - 1)
    # 9 of 10 wins, and the medians differ by 5.0 > REV's IQR of 4.5.
    assert (higher["wins"], higher["losses"], higher["pairs"]) == (9, 1, 10)
    assert higher["gain"] and higher["within_bound"]
    lower = pairs.summarize(rev, work, "lower", 0.25)
    assert (lower["wins"], lower["losses"]) == (1, 9)
    assert not lower["gain"] and not lower["within_bound"]
    # Ties count for neither side.
    same = pairs.summarize(rev, rev, "lower", 0.0)
    assert (same["wins"], same["losses"], same["change"]) == (0, 0, 0.0)
    assert not same["gain"] and same["within_bound"]
    # Eight wins of ten are too few, however large the difference.
    eight = pairs.summarize(rev, [v + 100 for v in rev[:8]] + rev[8:], "higher", 0.25)
    assert eight["wins"] == 8 and not eight["gain"]
    # Nine wins whose medians differ by no more than REV's IQR are no gain.
    close = pairs.summarize(rev, [v + 1 for v in rev[:9]] + [0.0], "higher", 0.25)
    assert close["wins"] == 9 and not close["gain"]
    # Fewer than ten pairs are no gain, however clear they are.
    one = pairs.summarize([2.0], [1.0], "lower", 0.25)
    assert one["rev"] == {"q1": 2.0, "median": 2.0, "q3": 2.0} and one["wins"] == 1
    assert not one["gain"]
    nine = pairs.summarize(rev[:9], [v + 100 for v in rev[:9]], "higher", 0.25)
    assert nine["wins"] == 9 and not nine["gain"]


def test_a_changed_bench_file_is_listed(pairs, tmp_path):
    tree = tmp_path / "tree"
    (tree / "bench").mkdir(parents=True)
    for path, data in pairs.bench_files(pairs.ROOT).items():
        (tree / "bench" / path).parent.mkdir(parents=True, exist_ok=True)
        (tree / "bench" / path).write_bytes(data)
    (tree / "bench" / "__pycache__").mkdir(exist_ok=True)
    (tree / "bench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"")
    assert pairs.differences(pairs.bench_files(tree), pairs.bench_files(pairs.ROOT)) == []
    with open(tree / "bench" / "run.py", "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert pairs.differences(pairs.bench_files(tree), pairs.bench_files(pairs.ROOT)) == [
        "differs: run.py"
    ]


def test_one_tiny_pair_of_the_working_tree_against_itself(pairs):
    metrics = {m["name"]: m for m in pairs.spec()["end_to_end"]}
    logged = []
    result = pairs.run_pairs({"rev": pairs.ROOT, "work": pairs.ROOT}, ["robsel-d50"], 1, 0.3, 1,
                             "tiny", metrics, log=logged.append)
    (run,) = result["robsel-d50"]["runs"]
    assert (run["seed"], run["first"]) == (1, "rev")
    for side in ("rev", "work"):
        assert run[side]["correct"] and run[side]["failed"] == 0
        assert set(run[side]) == {"correct", "attempted", "failed", *metrics}
    summary = result["robsel-d50"]["metrics"]
    assert set(summary) == set(metrics)
    for name, s in summary.items():
        assert s["pairs"] == 1 and s["wins"] + s["losses"] <= 1
        assert s["rev"]["median"] == run["rev"][name]
    assert len(logged) == 1 and logged[0].startswith("robsel-d50 pair 1/1 seed 1:")
    assert "robsel-d50" in pairs.report(result)
    json.dumps(result)
