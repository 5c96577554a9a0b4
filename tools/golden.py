"""Golden diff of the ggmselect command line: run one fixed matrix of CLI
commands on a committed revision and on the working tree, and list every
output that differs.

    python tools/golden.py REV [--out DIR]

REV (a commit, tag or branch) is exported with ``git archive`` into a
temporary directory, which leaves no worktree registered in ``.git``. Each
command runs as ``python -m ggmselect`` in a fresh interpreter, with the
tree's ``src`` as ``PYTHONPATH`` and one BLAS thread, in a directory that
holds the fixture files and the outputs of the commands before it. For
every command the diff compares the exit code, stdout, stderr (as a sorted
multiset of lines, because pool threads interleave their lines) and every
file the run leaves. The exit status is 0 when nothing differs, 1 otherwise.
``--out DIR`` keeps both runs under DIR/rev and DIR/work for inspection.
Nothing is downloaded; the matrix takes about 20 s per tree on a 2-vCPU
guest, 10 s of it the headline sweep. Needs Python >= 3.11.4 (``tarfile``'s
``data`` filter).
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SIX_METHODS = "robsel, holm, bonferroni, sidak, cv, ebic"
SIX_CFG = (
    "d = 8\nedge_prob = 0.3\nsample_sizes = 8, 60\nreplications = 2\n"
    f"alphas = 0.05, 0.2\nbootstrap = 30\nseed = 3\nmethods = {SIX_METHODS}\n"
)

# Files written into each run directory before the first command.
FIXTURES = {
    "six.cfg": SIX_CFG,
    # The same plan with its methods listed in another order, Holm after robsel.
    "six-reordered.cfg": SIX_CFG.replace(SIX_METHODS, "ebic, sidak, robsel, cv, holm, bonferroni"),
    "nonfinite.cfg": (
        "d = 8\nedge_prob = 0.3\nsample_sizes = 60\nreplications = 2\n"
        "alphas = 0.1\nbootstrap = 30\nkkt_tol = inf\nzero_tol = nan\n"
    ),
    # The headline sweep: the plan of the acceptance tests' FWER fixture
    # (criteria 3 and 6), whose replicate CSV the diff then checks bit for bit.
    "headline.cfg": (
        "d = 50\nedge_prob = 0.02\nsample_sizes = 800, 3200\nreplications = 100\n"
        "alphas = 0.05, 0.1\nbootstrap = 200\nseed = 20250809\nmethods = robsel, holm\n"
    ),
    # A plan saved with a byte-order mark.
    "bom.cfg": (
        "\ufeffd = 6\nedge_prob = 0.3\nsample_sizes = 40\nreplications = 2\n"
        "alphas = 0.1, 0.3\nbootstrap = 20\nseed = 4\n"
    ),
    "ref.csv": "V1,V2\nV2,V3\nV3,V1\nV4,V7\nV5,V6\nV8,V2\n",
    # The header of an edge list after a blank line.
    "blank.edges.csv": "\nnode_i,node_j,precision_value\nV1,V2,0.5\nV2,V3,-0.25\n",
    # Quoted names holding a comma and a quote.
    "quoted.csv": (
        '"a,b",c,"say ""d"""\n0.00,0.30,-0.09\n-0.89,-1.17,-1.69\n0.06,1.39,0.34\n'
        "-0.62,-0.01,0.35\n0.11,-0.85,-0.54\n0.70,-0.79,-0.93\n-1.90,-2.81,-3.53\n"
        "-0.24,-1.46,-0.60\n"
    ),
    # Two variables, one hypothesis, whose Sidak adjustment of 1 - (1 - p)
    # once rounded below p.
    "two.csv": (
        "a,b\n-0.04,-1.26\n2.57,0.48\n0.64,-0.21\n0.06,0.34\n0.20,-0.61\n0.61,0.49\n"
        "-0.12,-0.72\n-0.88,-1.01\n0.28,-0.35\n0.87,-0.89\n0.73,0.03\n-0.57,1.04\n"
    ),
    # Constant columns: the bootstrap picks lambda 0, where the fit fails.
    "constant.csv": "a,b,c\n" + "1,2,3\n" * 6,
}

# (name, arguments after ``python -m ggmselect``), run in this order.
MATRIX = (
    ("sim50", ["simulate", "--d", "50", "--edge-prob", "0.04", "--n", "3200", "--seed", "1", "-o", "s50"]),
    ("sim8", ["simulate", "--d", "8", "--edge-prob", "0.3", "--n", "200", "--seed", "2", "-o", "s8"]),
    ("sim30", ["simulate", "--d", "30", "--edge-prob", "0.1", "--n", "20", "--seed", "3", "-o", "s30"]),
    ("sim100", ["simulate", "--d", "100", "--edge-prob", "0.02", "--n", "2000", "--seed", "4", "-o", "s100"]),
    ("robsel50-t1", ["robsel", "-i", "s50.data.csv", "--alpha", "0.1", "-o", "r50t1"]),
    ("robsel50-t2", ["--threads", "2", "robsel", "-i", "s50.data.csv", "--alpha", "0.1", "-o", "r50t2"]),
    ("robsel50-nocenter", ["robsel", "-i", "s50.data.csv", "--alpha", "0.05", "--no-center",
                           "--bootstrap", "150", "-o", "r50nc"]),
    ("robsel50-standardize-t3", ["--threads", "3", "robsel", "-i", "s50.data.csv", "--alpha", "0.1",
                                 "--standardize", "--bootstrap", "150", "-o", "r50st3"]),
    ("robsel50-nofit", ["robsel", "-i", "s50.data.csv", "--alpha", "0.2", "--no-fit", "-o", "r50nf"]),
    ("robsel8", ["robsel", "-i", "s8.data.csv", "--alpha", "0.1", "--seed", "5", "-o", "r8"]),
    ("robsel30", ["--threads", "2", "robsel", "-i", "s30.data.csv", "--alpha", "0.1", "-o", "r30"]),
    ("robsel100", ["robsel", "-i", "s100.data.csv", "--alpha", "0.1", "--bootstrap", "50", "-o", "r100"]),
    ("test-holm", ["test", "-i", "s50.data.csv", "--alpha", "0.1", "-o", "th"]),
    ("test-bonferroni", ["test", "-i", "s50.data.csv", "--alpha", "0.1", "--method", "bonferroni", "-o", "tb"]),
    ("test-sidak", ["test", "-i", "s8.data.csv", "--alpha", "0.2", "--method", "sidak", "-o", "ts"]),
    ("test-small-n", ["test", "-i", "s30.data.csv", "--alpha", "0.1", "-o", "tn"]),
    ("test-sidak-two", ["test", "-i", "two.csv", "--alpha", "0.5", "--method", "sidak", "-o", "ts2"]),
    ("tune-ebic", ["tune", "-i", "s100.data.csv", "--method", "ebic", "-o", "ue"]),
    ("tune-cv", ["--threads", "2", "tune", "-i", "s8.data.csv", "--method", "cv", "--seed", "1", "-o", "uc"]),
    ("fit8", ["fit", "-i", "s8.data.csv", "--lambda", "0.1", "-o", "f8"]),
    ("fit-quoted-names", ["fit", "-i", "quoted.csv", "--lambda", "0.05", "-o", "q"]),
    ("fit50-standardize", ["fit", "-i", "s50.data.csv", "--lambda", "0.05", "--standardize", "-o", "f50"]),
    ("evaluate", ["evaluate", "--edges", "r8.edges.csv", "--reference", "ref.csv", "-o", "e8"]),
    ("evaluate-data", ["evaluate", "--edges", "f8.edges.csv", "--reference", "ref.csv",
                       "--data", "s8.data.csv", "-o", "e8d"]),
    ("evaluate-blank", ["evaluate", "--edges", "blank.edges.csv", "--reference", "ref.csv"]),
    ("evaluate-blank-data", ["evaluate", "--edges", "blank.edges.csv", "--reference", "ref.csv",
                             "--data", "s8.data.csv"]),
    ("experiment-t1", ["experiment", "--config", "six.cfg", "-o", "x1"]),
    ("experiment-t2", ["--threads", "2", "experiment", "--config", "six.cfg", "--verbose", "-o", "x2"]),
    ("experiment-headline", ["--threads", "2", "experiment", "--config", "headline.cfg", "-o", "xh"]),
    ("experiment-bom", ["experiment", "--config", "bom.cfg", "-o", "xb"]),
    ("experiment-reordered", ["experiment", "--config", "six-reordered.cfg", "-o", "xr"]),
    ("bad-alpha", ["robsel", "-i", "s8.data.csv", "--alpha", "1.5", "-o", "bad1"]),
    ("robsel-constant", ["robsel", "-i", "constant.csv", "--alpha", "0.1", "-o", "rc"]),
    ("robsel-nofit-bad-kkt-tol", ["robsel", "-i", "s8.data.csv", "--alpha", "0.1", "--no-fit",
                                  "--kkt-tol", "-1", "-o", "bad8"]),
    ("bad-lambda", ["fit", "-i", "s8.data.csv", "--lambda", "-1", "-o", "bad2"]),
    ("bad-threads", ["--threads", "0", "fit", "-i", "s8.data.csv", "--lambda", "0.1", "-o", "bad3"]),
    ("bad-folds", ["tune", "-i", "s8.data.csv", "--method", "cv", "--folds", "1", "-o", "bad4"]),
    ("bad-n", ["simulate", "--d", "5", "--edge-prob", "0.3", "--n", "1", "-o", "bad6"]),
    ("bad-zero-tol", ["fit", "-i", "s8.data.csv", "--lambda", "0.1", "--zero-tol", "-1", "-o", "bad5"]),
    ("bad-zero-tol-cv", ["tune", "-i", "s8.data.csv", "--method", "cv", "--zero-tol", "-1", "-o", "bad7"]),
    ("nonfinite-kkt-tol", ["fit", "-i", "s8.data.csv", "--lambda", "0.1", "--kkt-tol", "inf", "-o", "nf1"]),
    ("nonfinite-zero-tol", ["fit", "-i", "s8.data.csv", "--lambda", "0.1", "--zero-tol", "nan", "-o", "nf2"]),
    ("nonfinite-gamma-nan", ["tune", "-i", "s8.data.csv", "--method", "ebic", "--gamma", "nan", "-o", "nf3"]),
    ("nonfinite-gamma-inf", ["tune", "-i", "s8.data.csv", "--method", "ebic", "--gamma", "inf", "-o", "nf4"]),
    ("nonfinite-plan", ["experiment", "--config", "nonfinite.cfg", "-o", "nf5"]),
)


def child_env(src: Path) -> dict:
    """The environment of one command: ``src`` alone on PYTHONPATH, one BLAS
    thread, and no thread count from the caller's environment."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GGMSELECT_THREADS")}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_matrix(src: Path, run_dir: Path, matrix=MATRIX, fixtures=FIXTURES) -> None:
    """Write the fixtures into ``run_dir`` and run each command there with
    the package under ``src``; its exit code, stdout and stderr go to
    ``run_dir/_streams/<name>.{exit,stdout,stderr}``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, text in fixtures.items():
        (run_dir / name).write_text(text, encoding="utf-8")
    streams = run_dir / "_streams"
    streams.mkdir()
    env = child_env(src)
    for name, args in matrix:
        done = subprocess.run(
            [sys.executable, "-m", "ggmselect", *args],
            cwd=run_dir, env=env, capture_output=True,
        )
        # A traceback names the tree it ran from; the diff should not.
        stderr = done.stderr.replace(str(src.parent).encode(), b"<tree>")
        (streams / f"{name}.exit").write_text(f"{done.returncode}\n", encoding="utf-8")
        (streams / f"{name}.stdout").write_bytes(done.stdout)
        (streams / f"{name}.stderr").write_bytes(
            b"".join(line + b"\n" for line in sorted(stderr.splitlines()))
        )


def collect(run_dir: Path) -> dict:
    """Relative path -> bytes of every file under ``run_dir``."""
    return {
        path.relative_to(run_dir).as_posix(): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def differences(before: dict, after: dict) -> list[str]:
    """One line per path whose bytes differ or that only one side has."""
    out = []
    for path in sorted(before.keys() | after.keys()):
        if path not in after:
            out.append(f"only in rev: {path}")
        elif path not in before:
            out.append(f"only in work: {path}")
        elif before[path] != after[path]:
            out.append(f"differs: {path}")
    return out


def export(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` under ``dest``; returns its ``src``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree against")
    parser.add_argument("--out", type=Path, default=None, help="keep both runs under this directory")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="ggmselect-golden-"))
    out = args.out if args.out is not None else scratch / "runs"
    try:
        for label in ("rev", "work"):
            if (out / label).exists():
                shutil.rmtree(out / label)
        run_matrix(export(args.rev, scratch / "tree"), out / "rev")
        run_matrix(ROOT / "src", out / "work")
        before, after = collect(out / "rev"), collect(out / "work")
    finally:
        shutil.rmtree(scratch)
    diff = differences(before, after)
    for line in diff:
        print(line)
    print(f"{len(diff)} of {len(before.keys() | after.keys())} files differ "
          f"({len(MATRIX)} commands)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
