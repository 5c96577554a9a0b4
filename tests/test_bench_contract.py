"""The benchmark's tracer (``bench/tracing.py``) times ggmselect from outside
by replacing names that its modules bind at import time. These tests keep
those names in place and on the path each command takes."""

import importlib
import importlib.util
from pathlib import Path

from ggmselect import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("ggmselect_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    missing = [
        f"ggmselect.{module}.{attr}"
        for module, attr in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(f"ggmselect.{module}"), attr, None))
    ]
    assert missing == []


def test_wrapped_names_are_called_through(tmp_path):
    tracing = load_tracing()
    data = tmp_path / "sim.data.csv"
    assert cli.main(["simulate", "--d", "6", "--edge-prob", "0.3", "--n", "40",
                     "-o", str(tmp_path / "sim")]) == 0
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "d = 6\nedge_prob = 0.3\nsample_sizes = 40\nreplications = 2\n"
        "alphas = 0.2\nbootstrap = 10\n",
        encoding="utf-8",
    )
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.op_span(0):
            assert cli.main(["robsel", "-i", str(data), "--alpha", "0.2", "--bootstrap",
                             "10", "--no-fit", "-o", str(tmp_path / "robsel")]) == 0
        with tracer.op_span(1):
            assert cli.main(["--threads", "2", "experiment", "--config", str(plan),
                             "-o", str(tmp_path / "sweep")]) == 0
    finally:
        tracer.uninstall()

    def spans(op, name):
        return [s for s in tracer.spans if s.op == op and s.name == name]

    # cli -> robsel.robsel_lambda -> robsel.bootstrap_rwp_samples
    (boot,) = spans(0, "robsel.bootstrap_rwp_samples")
    assert tracer.spans[boot.parent].name == "robsel.robsel_lambda"
    # The CLI writes its lambda.csv through core.write_csv, which looks up
    # core.atomic_text_writer when called, so the write is timed once.
    assert len(spans(0, "core.atomic_text_writer")) == 1
    # The sweep samples and bootstraps each (n, replicate) cell through the
    # names simulation binds, and writes its two reports through
    # core.atomic_text_writer as looked up at call time.
    assert len(spans(1, "robsel.bootstrap_rwp_samples")) == 2
    assert len(spans(1, "core._cov")) == 2
    assert len(spans(1, "core.atomic_text_writer")) == 2
