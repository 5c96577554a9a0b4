"""``tools/golden.py``, the CLI golden diff, run on a tiny matrix of the
working tree against itself, so that the tool keeps working."""

import importlib.util
from pathlib import Path

import ggmselect

GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"

TINY = (
    ("sim", ["simulate", "--d", "6", "--edge-prob", "0.3", "--n", "40", "-o", "s"]),
    ("robsel", ["--threads", "2", "robsel", "-i", "s.data.csv", "--alpha", "0.2",
                "--bootstrap", "10", "-o", "r"]),
    ("evaluate", ["evaluate", "--edges", "r.edges.csv", "--reference", "ref.csv"]),
    ("bad", ["fit", "-i", "s.data.csv", "--lambda", "-1", "-o", "f"]),
)


def load_golden():
    spec = importlib.util.spec_from_file_location("ggmselect_golden", GOLDEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_matrix_of_the_working_tree_matches_itself(tmp_path):
    golden = load_golden()
    assert len({name for name, _ in golden.MATRIX}) == len(golden.MATRIX)
    src = Path(ggmselect.__file__).resolve().parents[1]
    for label in ("a", "b"):
        golden.run_matrix(src, tmp_path / label, TINY, {"ref.csv": "V1,V2\n"})
    a, b = golden.collect(tmp_path / "a"), golden.collect(tmp_path / "b")
    assert golden.differences(a, b) == []
    assert a["_streams/robsel.exit"] == b"0\n" and "r.edges.csv" in a
    assert a["_streams/bad.exit"] == b"2\n"
    assert a["_streams/bad.stderr"].startswith(b"error: InvalidInputError: lambda")
    # A changed, a missing and an extra output are each listed.
    b["r.lambda.csv"] += b"\n"
    del b["s.omega.csv"]
    b["new.csv"] = b""
    assert golden.differences(a, b) == [
        "only in work: new.csv",
        "differs: r.lambda.csv",
        "only in rev: s.omega.csv",
    ]
