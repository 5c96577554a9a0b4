import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ggmselect as gs
from ggmselect import cli, robsel, simulation, tuning
from ggmselect.cli import build_parser, main
from ggmselect.core import format_real, write_csv

from helpers import subprocess_env


@pytest.fixture()
def sample_csv(tmp_path):
    truth = gs.generate_precision(6, 0.15, seed=42)
    data = gs.sample_gaussian(truth, 120, seed=43)
    path = tmp_path / "data.csv"
    names = [f"g{i}" for i in range(6)]
    lines = [",".join(names)]
    for row in data.values:
        lines.append(",".join(format(v, ".12g") for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(args):
    return main([str(a) for a in args])


def test_fit_writes_matrix_and_edges(tmp_path, sample_csv, capsys):
    prefix = tmp_path / "fit"
    assert run_cli(["fit", "-i", sample_csv, "--lambda", "0.1", "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert "lambda = 0.1" in out
    assert "converged = true" in out
    precision = (tmp_path / "fit.precision.csv").read_text(encoding="utf-8")
    assert precision.splitlines()[0] == "g0,g1,g2,g3,g4,g5"
    edges = (tmp_path / "fit.edges.csv").read_text(encoding="utf-8")
    assert edges.splitlines()[0] == "node_i,node_j,precision_value"


def test_quoted_names_round_trip_through_the_fit_outputs(tmp_path, sample_csv):
    # A header "a,b",c,d once gave a 4-name header over 3 columns.
    names = ["a,b", 'say "hi"', "g2", "g3", "g4", "g5"]
    lines = sample_csv.read_text(encoding="utf-8").splitlines()
    quoted = tmp_path / "quoted.csv"
    header = ",".join('"' + name.replace('"', '""') + '"' for name in names)
    quoted.write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
    for path, prefix in ((sample_csv, "plain"), (quoted, "quoted")):
        assert run_cli(["fit", "-i", path, "--lambda", "0.05", "-o", tmp_path / prefix]) == 0
    written = gs.load_data_csv(tmp_path / "quoted.precision.csv")
    assert written.names() == names
    expected = gs.load_data_csv(tmp_path / "plain.precision.csv").values
    assert np.array_equal(written.values, expected)
    rename = dict(zip([f"g{i}" for i in range(6)], names))
    plain = cli._read_edge_list(tmp_path / "plain.edges.csv")
    assert cli._read_edge_list(tmp_path / "quoted.edges.csv") == [
        (rename[i], rename[j]) for i, j in plain
    ]


def test_fit_summary_reports_blocks_after_sweeps(tmp_path, sample_csv, capsys):
    A = gs.empirical_covariance(gs.load_data_csv(sample_csv))
    for lam in (0.0, 0.1, 0.5):
        assert run_cli(["fit", "-i", sample_csv, "--lambda", lam, "-o", tmp_path / "fit"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sizes = gs.glasso(A, gs.SolverConfig(lam=lam)).block_sizes
        at = next(k for k, line in enumerate(lines) if line.startswith("sweeps_used = "))
        assert lines[at + 1] == f"blocks = {len(sizes)} (largest {sizes[0]})"


def test_simulate_one_row_is_usage_error(tmp_path, capsys):
    args = ["simulate", "--d", "5", "--edge-prob", "0.3", "--n", "1", "-o", tmp_path / "sim"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: InvalidInputError: n must be >= 2, got 1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_input_error_names_the_file_line(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n\n1,2\n\n3,oops\n", encoding="utf-8")
    assert run_cli(["fit", "-i", path, "--lambda", "0.1", "-o", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "could not parse value at line 5, column 2: 'oops'" in err


def test_fit_singular_input_is_runtime_failure(tmp_path, capsys):
    path = tmp_path / "singular.csv"
    path.write_text("1,2,3,4\n2,4,6,8\n3,6,9,12\n", encoding="utf-8")
    prefix = tmp_path / "out"
    code = run_cli(["fit", "-i", path, "--lambda", "0", "-o", prefix])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SingularInputError:")
    assert not list(tmp_path.glob("out*"))  # nothing partial left behind


def test_fit_singular_active_block_is_runtime_failure(
    tmp_path, sample_csv, capsys, monkeypatch
):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    prefix = tmp_path / "out"
    assert run_cli(["fit", "-i", sample_csv, "--lambda", "0.05", "-o", prefix]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SingularInputError: working covariance is singular")
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--kkt-tol", "inf"], "kkt_tol must be finite and positive, got inf"),
        (["--kkt-tol", "nan"], "kkt_tol must be finite and positive, got nan"),
        (["--zero-tol", "nan"], "zero_tol must be finite and nonnegative, got nan"),
        (["--zero-tol", "inf"], "zero_tol must be finite and nonnegative, got inf"),
    ],
    ids=["kkt-tol-inf", "kkt-tol-nan", "zero-tol-nan", "zero-tol-inf"],
)
def test_fit_rejects_a_non_finite_tolerance(tmp_path, sample_csv, capsys, flags, message):
    # An infinite kkt_tol once reported an uncertified fit as converged, and a
    # NaN zero_tol reported no edges.
    args = ["fit", "-i", sample_csv, "--lambda", "0.1", *flags, "-o", tmp_path / "out"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: InvalidInputError: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.glob("out.*")) == []


def test_invalid_parameter_is_usage_error(sample_csv, capsys):
    code = run_cli(["robsel", "-i", sample_csv, "--alpha", "1.5"])
    assert code == 2
    assert "error: InvalidInputError:" in capsys.readouterr().err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code = run_cli(["fit", "-i", tmp_path / "absent.csv", "--lambda", "0.1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_status(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--mystery-flag", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["--threads", "0", "fit", "-i", "x.csv", "--lambda", "0.1"])
    assert excinfo.value.code == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_robsel_rerun_is_bit_identical(tmp_path, sample_csv, capsys):
    args = [
        "robsel", "-i", sample_csv, "--alpha", "0.1",
        "--bootstrap", "80", "--seed", "7",
    ]
    assert run_cli(args + ["-o", tmp_path / "a"]) == 0
    first_out = capsys.readouterr().out
    assert run_cli(args + ["-o", tmp_path / "b"]) == 0
    second_out = capsys.readouterr().out
    assert first_out == second_out
    for suffix in ("lambda.csv", "precision.csv", "edges.csv"):
        a = (tmp_path / f"a.{suffix}").read_bytes()
        b = (tmp_path / f"b.{suffix}").read_bytes()
        assert a == b


def test_output_prefix_defaults_to_input_stem(tmp_path, sample_csv):
    assert (
        run_cli(["robsel", "-i", sample_csv, "--alpha", "0.3", "--bootstrap", "20",
                 "--seed", "4"])
        == 0
    )
    stem = str(sample_csv)[: -len(".csv")]
    for suffix in ("lambda.csv", "edges.csv", "precision.csv"):
        assert (tmp_path / f"{stem.rsplit('/', 1)[-1]}.{suffix}").exists()


def test_robsel_no_fit_skips_graph_outputs(tmp_path, sample_csv):
    prefix = tmp_path / "sel"
    assert (
        run_cli(
            ["robsel", "-i", sample_csv, "--alpha", "0.2", "--bootstrap", "40",
             "--seed", "3", "--no-fit", "-o", prefix]
        )
        == 0
    )
    assert (tmp_path / "sel.lambda.csv").exists()
    assert not (tmp_path / "sel.precision.csv").exists()


def test_test_subcommand_outputs(tmp_path, sample_csv, capsys):
    prefix = tmp_path / "tst"
    assert (
        run_cli(["test", "-i", sample_csv, "--alpha", "0.1", "--method", "holm",
                 "-o", prefix])
        == 0
    )
    assert "method = holm" in capsys.readouterr().out
    pvalues = (tmp_path / "tst.pvalues.csv").read_text(encoding="utf-8").splitlines()
    assert pvalues[0] == "g0,g1,g2,g3,g4,g5"
    # diagonal cells are undefined and left empty
    assert pvalues[1].split(",")[0] == ""
    edges = (tmp_path / "tst.edges.csv").read_text(encoding="utf-8").splitlines()
    assert all(line.endswith(",") for line in edges[1:])  # no precision values


def test_tune_outputs_scores_table(tmp_path, sample_csv):
    prefix = tmp_path / "tun"
    assert (
        run_cli(["tune", "-i", sample_csv, "--method", "cv", "--folds", "4",
                 "--grid-size", "5", "--seed", "2", "-o", prefix])
        == 0
    )
    scores = (tmp_path / "tun.scores.csv").read_text(encoding="utf-8").splitlines()
    assert scores[0] == "lambda,score"
    assert len(scores) == 6
    chosen = (tmp_path / "tun.lambda.csv").read_text(encoding="utf-8").splitlines()
    assert chosen[0] == "method,chosen_lambda"


def test_simulate_then_fit_round_trip(tmp_path, capsys):
    sim_prefix = tmp_path / "sim"
    assert (
        run_cli(["simulate", "--d", "5", "--edge-prob", "0.2", "--n", "80",
                 "--seed", "3", "-o", sim_prefix])
        == 0
    )
    data = gs.load_data_csv(tmp_path / "sim.data.csv")
    assert data.n == 80 and data.d == 5
    omega = gs.load_data_csv(tmp_path / "sim.omega.csv")
    assert omega.n == 5
    assert run_cli(["fit", "-i", tmp_path / "sim.data.csv", "--lambda", "0.3"]) == 0


@pytest.mark.parametrize(
    "command",
    [["fit", "--lambda", "0.1"], ["robsel", "--alpha", "0.2", "--bootstrap", "30", "--seed", "4"]],
    ids=["fit", "robsel"],
)
def test_standardize_matches_the_library_on_standardized_data(tmp_path, sample_csv, capsys, command):
    for flags, prefix in (([], "raw"), (["--standardize"], "std")):
        assert run_cli([command[0], "-i", sample_csv, *flags, *command[1:], "-o", tmp_path / prefix]) == 0
    out = capsys.readouterr().out.splitlines()
    data = gs.load_data_csv(sample_csv).standardized()
    lam = 0.1
    if command[0] == "robsel":
        lam = gs.robsel_lambda(data, 0.2, gs.RobselConfig(B=30, seed=4)).lam
    assert f"lambda = {format_real(lam)}" in out
    fit = gs.glasso(gs.empirical_covariance(data), gs.SolverConfig(lam=lam))
    write_csv(tmp_path / "expected.csv", data.names(), fit.precision)
    written = (tmp_path / "std.precision.csv").read_bytes()
    assert written == (tmp_path / "expected.csv").read_bytes()
    assert written != (tmp_path / "raw.precision.csv").read_bytes()


def test_standardize_rejects_a_constant_column(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x,y,z\n1,2,5\n2,1,5\n3,4,5\n4,3,5\n", encoding="utf-8")
    for command in (["fit", "--lambda", "0.1"], ["robsel", "--alpha", "0.1"]):
        args = [command[0], "-i", path, "--standardize", *command[1:], "-o", tmp_path / "out"]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: InvalidInputError: cannot standardize zero-variance columns: ['z']\n"
        )
    assert list(tmp_path.glob("out.*")) == []


def test_precision_csv_writes_no_negative_zero(tmp_path):
    # The raw second moment of mean-shifted data leaves exact zeros in the
    # fitted precision that glasso returns as -0.0.
    assert run_cli(["simulate", "--d", "8", "--edge-prob", "0.15", "--n", "60",
                    "--seed", "5", "-o", tmp_path / "sim"]) == 0
    data = gs.load_data_csv(tmp_path / "sim.data.csv")
    shifted = tmp_path / "shifted.csv"
    shifted.write_text(
        "\n".join([",".join(data.names())]
                  + [",".join(format(v, ".12g") for v in row) for row in data.values + 1.0])
        + "\n",
        encoding="utf-8",
    )
    assert run_cli(["robsel", "-i", shifted, "--alpha", "0.2", "--bootstrap", "40",
                    "--seed", "3", "--no-center", "-o", tmp_path / "s"]) == 0
    fields = [
        field
        for line in (tmp_path / "s.precision.csv").read_text().splitlines()[1:]
        for field in line.split(",")
    ]
    assert "0" in fields
    assert "-0" not in fields


def test_experiment_threads_do_not_change_output(tmp_path):
    config = tmp_path / "plan.cfg"
    config.write_text(
        "d = 8\nedge_prob = 0.1\nsample_sizes = 40\nreplications = 2\n"
        "alphas = 0.2\nbootstrap = 20\nseed = 5\nmethods = robsel, holm\n",
        encoding="utf-8",
    )
    assert run_cli(["experiment", "--config", config, "-o", tmp_path / "one"]) == 0
    assert (
        run_cli(["--threads", "8", "experiment", "--config", config, "-o", tmp_path / "two"])
        == 0
    )
    assert (tmp_path / "one.replicates.csv").read_bytes() == (
        tmp_path / "two.replicates.csv"
    ).read_bytes()
    assert (tmp_path / "one.summary.csv").read_bytes() == (
        tmp_path / "two.summary.csv"
    ).read_bytes()


def test_experiment_plan_with_repeats_or_no_methods_is_usage_error(tmp_path, capsys):
    config = tmp_path / "plan.cfg"
    base = "d = 8\nedge_prob = 0.1\nreplications = 2\nbootstrap = 20\n"
    for extra, message in (
        ("sample_sizes = 40, 40\nalphas = 0.2, 0.2\n", "repeated value in sample_sizes"),
        ("sample_sizes = 40\nalphas = 0.2, 0.2\n", "repeated value in alphas"),
        ("sample_sizes = 40\nmethods =\n", "methods must name at least one"),
    ):
        config.write_text(base + extra, encoding="utf-8")
        assert run_cli(["experiment", "--config", config, "-o", tmp_path / "s"]) == 2
        assert f"error: InvalidInputError: {message}" in capsys.readouterr().err
        assert not (tmp_path / "s.replicates.csv").exists()


@pytest.mark.parametrize(
    "line,message",
    [
        ("folds = 1", "folds must be >= 2, got 1"),
        ("gamma = -3", "gamma must be finite and >= 0, got -3.0"),
        ("grid_size = 0", "grid_size must be >= 2, got 0"),
        ("zero_tol = -1", "zero_tol must be finite and nonnegative, got -1.0"),
        ("gamma = nan", "gamma must be finite and >= 0, got nan"),
        ("zero_tol = nan", "zero_tol must be finite and nonnegative, got nan"),
        ("kkt_tol = inf", "kkt_tol must be finite and positive, got inf"),
    ],
    ids=["folds", "gamma", "grid_size", "zero_tol", "gamma-nan", "zero_tol-nan", "kkt_tol-inf"],
)
def test_experiment_plan_with_bad_tuning_setting_is_usage_error(tmp_path, capsys, line, message):
    config = tmp_path / "plan.cfg"
    config.write_text(
        "d = 6\nedge_prob = 0.3\nsample_sizes = 40\nreplications = 1\nbootstrap = 10\n"
        f"methods = robsel, cv, ebic\n{line}\n",
        encoding="utf-8",
    )
    assert run_cli(["experiment", "--config", config, "-o", tmp_path / "s"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: InvalidInputError: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "s.replicates.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--d", "6", "--edge-prob", "0.3", "--n", "40"],
        ["tune", "-i", "{csv}", "--method", "cv"],
    ],
    ids=["simulate", "tune-cv"],
)
def test_negative_seed_is_usage_error(tmp_path, sample_csv, capsys, command):
    args = [str(sample_csv) if a == "{csv}" else a for a in command]
    assert run_cli([*args, "--seed", "-1", "-o", tmp_path / "out"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: InvalidInputError: seed must be nonnegative, got -1\n"
    assert list(tmp_path.glob("out.*")) == []


@pytest.mark.parametrize(
    "method, flag, value, message",
    [
        ("ebic", "--gamma", "-1", "gamma must be finite and >= 0, got -1.0"),
        ("ebic", "--zero-tol", "-1", "zero_tol must be finite and nonnegative, got -1.0"),
        ("ebic", "--gamma", "nan", "gamma must be finite and >= 0, got nan"),
        ("ebic", "--gamma", "inf", "gamma must be finite and >= 0, got inf"),
        ("ebic", "--zero-tol", "nan", "zero_tol must be finite and nonnegative, got nan"),
        ("ebic", "--kkt-tol", "inf", "kkt_tol must be finite and positive, got inf"),
        # Cross-validation reads no edges, but --zero-tol is a solver setting
        # and is checked as every command that declares it checks it.
        ("cv", "--zero-tol", "-1", "zero_tol must be finite and nonnegative, got -1.0"),
        ("cv", "--zero-tol", "nan", "zero_tol must be finite and nonnegative, got nan"),
    ],
    ids=["gamma", "zero-tol", "gamma-nan", "gamma-inf", "zero-tol-nan", "kkt-tol-inf",
         "cv-zero-tol", "cv-zero-tol-nan"],
)
def test_ebic_tune_rejects_a_bad_setting_before_any_fit(
    tmp_path, sample_csv, capsys, monkeypatch, method, flag, value, message
):
    fits = []
    glasso = tuning.glasso
    monkeypatch.setattr(tuning, "glasso", lambda *args: fits.append(args) or glasso(*args))
    args = ["tune", "-i", sample_csv, "--method", method, flag, value, "-o", tmp_path / "out"]
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: InvalidInputError: {message}\n"
    assert captured.out == "" and fits == []
    assert list(tmp_path.glob("out.*")) == []


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--zero-tol", "-1"], "InvalidInputError: zero_tol must be finite and nonnegative, got -1.0"),
        (["--kkt-tol", "0"], "InvalidInputError: kkt_tol must be finite and positive, got 0.0"),
        (
            ["--no-penalize-diagonal"],
            "SingularInputError: off-diagonal-only penalty requires strictly positive variances",
        ),
        (["--zero-tol", "nan"], "InvalidInputError: zero_tol must be finite and nonnegative, got nan"),
        (["--kkt-tol", "nan"], "InvalidInputError: kkt_tol must be finite and positive, got nan"),
    ],
    ids=["zero-tol", "kkt-tol", "zero-variance", "zero-tol-nan", "kkt-tol-nan"],
)
def test_robsel_rejects_a_failing_fit_before_the_bootstrap(
    tmp_path, capsys, monkeypatch, flags, message
):
    data = gs.sample_gaussian(gs.generate_precision(5, 0.3, seed=7), 60, seed=8).values
    data[:, 2] = 2.0  # a zero variance, which only the unpenalized diagonal rejects
    path = tmp_path / "data.csv"
    np.savetxt(path, data, delimiter=",")
    boots = []
    monkeypatch.setattr(robsel, "bootstrap_rwp_samples", lambda *args, **kwargs: boots.append(args))
    args = ["robsel", "-i", path, "--alpha", "0.1", "--bootstrap", "20", *flags, "-o", tmp_path / "out"]
    assert run_cli(args) == (1 if "Singular" in message else 2)
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == "" and boots == []
    assert list(tmp_path.glob("out.*")) == []
    # The same data fit with the default settings, and without a fit the
    # fit's settings are not used.
    monkeypatch.undo()
    assert run_cli(["robsel", "-i", path, "--alpha", "0.1", "--bootstrap", "20", "-o", tmp_path / "ok"]) == 0
    assert run_cli([*args[:-2], "--no-fit", "-o", tmp_path / "nofit"]) == 0


def test_robsel_on_constant_data_prints_and_writes_nothing(tmp_path, capsys):
    # The bootstrap picks lambda 0 on constant data, where the fit fails. The
    # selected lambda was once printed, and its lambda.csv written, before it.
    path = tmp_path / "constant.csv"
    path.write_text("a,b,c\n" + "1,2,3\n" * 6, encoding="utf-8")
    args = ["robsel", "-i", path, "--alpha", "0.1", "--bootstrap", "20"]
    assert run_cli([*args, "-o", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: SingularInputError: lambda = 0 requires a strictly positive definite covariance\n"
    )
    assert captured.out == ""
    assert list(tmp_path.glob("out.*")) == []
    # Without a fit the selection is the whole output.
    assert run_cli([*args, "--no-fit", "-o", tmp_path / "nofit"]) == 0
    assert capsys.readouterr().out == "alpha = 0.1\nlambda = 0\n"
    assert [p.name for p in tmp_path.glob("nofit.*")] == ["nofit.lambda.csv"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--alpha", "0", "alpha must be in (0, 1), got 0.0"),
        ("--alpha", "1", "alpha must be in (0, 1), got 1.0"),
        ("--alpha", "nan", "alpha must be in (0, 1), got nan"),
        ("--bootstrap", "0", "bootstrap count must be >= 1, got 0"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
    ],
    ids=["alpha-0", "alpha-1", "alpha-nan", "bootstrap", "seed"],
)
def test_robsel_rejects_a_bad_bootstrap_setting_before_the_bootstrap(
    tmp_path, sample_csv, capsys, monkeypatch, flag, value, message
):
    boots = []
    monkeypatch.setattr(robsel, "bootstrap_rwp_samples", lambda *args, **kwargs: boots.append(args))
    settings = {"--alpha": "0.1", "--bootstrap": "20", "--seed": "0", flag: value}
    args = ["robsel", "-i", sample_csv, *(s for item in settings.items() for s in item)]
    for extra in ([], ["--no-fit"]):
        assert run_cli([*args, *extra, "-o", tmp_path / "out"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidInputError: {message}\n"
        assert captured.out == "" and boots == []
        assert list(tmp_path.glob("out.*")) == []


@pytest.mark.parametrize(
    "line, message",
    [
        ("alphas = 0.2, 1.5", "alpha must be in (0, 1), got 1.5"),
        ("alphas = nan", "alpha must be in (0, 1), got nan"),
        ("bootstrap = 0", "bootstrap count must be >= 1, got 0"),
        ("seed = -1", "seed must be nonnegative, got -1"),
    ],
    ids=["alpha", "alpha-nan", "bootstrap", "seed"],
)
def test_experiment_plan_with_bad_robsel_setting_is_usage_error(tmp_path, capsys, line, message):
    config = tmp_path / "plan.cfg"
    config.write_text(
        f"d = 6\nedge_prob = 0.3\nsample_sizes = 40\nreplications = 1\n{line}\n",
        encoding="utf-8",
    )
    assert run_cli(["experiment", "--config", config, "-o", tmp_path / "s"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: InvalidInputError: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "s.replicates.csv").exists()


def test_sidak_test_of_two_variables_decides_as_holm(tmp_path, capsys):
    # With one hypothesis Sidak's 1 - (1 - p) once rounded one ulp below p on
    # this file, and the p-value matrix rejected it: the command exited 2.
    path = tmp_path / "two.csv"
    rows = ("-0.04,-1.26 2.57,0.48 0.64,-0.21 0.06,0.34 0.20,-0.61 0.61,0.49 -0.12,-0.72 "
            "-0.88,-1.01 0.28,-0.35 0.87,-0.89 0.73,0.03 -0.57,1.04")
    path.write_text("a,b\n" + "\n".join(rows.split()) + "\n", encoding="utf-8")
    for alpha in ("0.1", "0.5"):  # no edge, then the edge
        outputs = {}
        for method in ("sidak", "holm"):
            prefix = tmp_path / f"{method}{alpha}"
            assert run_cli(["test", "-i", path, "--alpha", alpha, "--method", method, "-o", prefix]) == 0
            out = capsys.readouterr().out.replace(method, "METHOD")
            outputs[method] = [out] + [
                (tmp_path / f"{method}{alpha}.{suffix}").read_bytes()
                for suffix in ("pvalues.csv", "edges.csv")
            ]
        assert outputs["sidak"] == outputs["holm"]


def test_parser_defaults_match_the_experiment_plan():
    # The CLI and the sweep take their defaults from one definition each.
    plan = gs.ExperimentPlan()
    parser = build_parser()
    tune = parser.parse_args(["tune", "-i", "x.csv", "--method", "cv"])
    fit = parser.parse_args(["fit", "-i", "x.csv", "--lambda", "0.1"])
    for args, names in (
        (tune, ("folds", "gamma", "grid_size")),
        (tune, ("penalize_diagonal", "kkt_tol", "max_sweeps", "zero_tol")),
        (fit, ("penalize_diagonal", "kkt_tol", "max_sweeps", "zero_tol")),
    ):
        for name in names:
            assert getattr(args, name) == getattr(plan, name), name


class _WriteRecorder:
    """A stand-in for sys.stderr that keeps every write call."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)
        return len(text)

    def flush(self):
        pass


def test_threaded_sweep_writes_whole_stderr_lines(tmp_path, monkeypatch):
    # Pool threads share stderr, so each line must reach it in one write.
    def broken_glasso(*args, **kwargs):
        raise gs.SingularInputError("broken solve")

    def sample_gaussian(truth, n, seed):
        if n == 30:
            raise gs.GenerationError("broken sample")
        return gs.sample_gaussian(truth, n, seed)

    monkeypatch.setattr(simulation, "glasso", broken_glasso)
    monkeypatch.setattr(simulation, "sample_gaussian", sample_gaussian)
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stderr", recorder)
    config = tmp_path / "plan.cfg"
    config.write_text(
        "d = 6\nedge_prob = 0.3\nsample_sizes = 30, 40\nreplications = 2\n"
        "alphas = 0.2\nbootstrap = 10\nmethods = robsel, holm\n",
        encoding="utf-8",
    )
    args = ["--threads", "2", "experiment", "--config", config, "-o", tmp_path / "s", "--verbose"]
    assert run_cli(args) == 0
    monkeypatch.undo()
    assert all(call.endswith("\n") and call.count("\n") == 1 for call in recorder.calls)
    text = "".join(recorder.calls)
    assert "warning: robsel failed at (n=40" in text
    assert "warning: replicate (n=30, r=1) failed" in text
    assert "cell n=40 replicate=2: 2 rows" in text


def test_warnings_reach_stderr_as_one_line_each(tmp_path, sample_csv, monkeypatch):
    recorder = _WriteRecorder()
    monkeypatch.setattr(sys, "stderr", recorder)
    fit = ["fit", "-i", sample_csv, "--lambda", "0", "--kkt-tol", "1e-300", "-o", tmp_path / "f"]
    assert run_cli(fit) == 0
    (line,) = recorder.calls
    assert line.startswith("warning: glasso did not converge in 0 sweeps (")
    # Warnings raised on pool threads take the same form.
    recorder.calls.clear()
    tune = ["--threads", "2", "tune", "-i", sample_csv, "--method", "cv", "--folds", "3",
            "--grid-size", "3", "--max-sweeps", "1", "--kkt-tol", "1e-300", "-o", tmp_path / "t"]
    assert run_cli(tune) == 0
    monkeypatch.undo()
    assert recorder.calls
    for call in recorder.calls:
        assert call.startswith("warning: glasso did not converge in ")
        assert call.endswith("\n") and call.count("\n") == 1
        assert "solver.py" not in call


def test_evaluate_permissive_universe(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "node_i,node_j,precision_value\na,b,0.5\nb,c,-0.25\n", encoding="utf-8"
    )
    reference = tmp_path / "ref.csv"
    reference.write_text("a,b\nz,w\n", encoding="utf-8")
    prefix = tmp_path / "val"
    assert run_cli(["evaluate", "--edges", edges, "--reference", reference, "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert out == "estimated_edges = 2\nvalidated_edges = 1\nproportion = 0.5\n"
    # The file holds the same fields as one row.
    assert (tmp_path / "val.validation.csv").read_text(encoding="utf-8") == (
        "estimated_edges,validated_edges,proportion\n2,1,0.5\n"
    )


def test_evaluate_skips_edge_list_header_after_byte_order_mark(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "\ufeffnode_i,node_j,precision_value\na,b,0.5\nb,c,-0.25\n", encoding="utf-8"
    )
    reference = tmp_path / "ref.csv"
    reference.write_text("a,b\n", encoding="utf-8")
    assert run_cli(["evaluate", "--edges", edges, "--reference", reference]) == 0
    out = capsys.readouterr().out
    assert "estimated_edges = 2" in out
    assert "validated_edges = 1" in out


def test_evaluate_skips_edge_list_header_after_blank_lines(tmp_path, sample_csv, capsys):
    # The header is the first non-empty row, as for observation files; read
    # as an edge it once counted 3 edges, or named unknown nodes with --data.
    edges = tmp_path / "edges.csv"
    edges.write_text("\n\nnode_i,node_j,precision_value\ng0,g1,0.5\ng1,g2,-0.25\n", encoding="utf-8")
    reference = tmp_path / "ref.csv"
    reference.write_text("g0,g1\ng1,g2\n", encoding="utf-8")
    for extra in ([], ["--data", sample_csv]):
        assert run_cli(["evaluate", "--edges", edges, "--reference", reference, *extra]) == 0
        out = capsys.readouterr().out
        assert out == "estimated_edges = 2\nvalidated_edges = 2\nproportion = 1\n"


def test_evaluate_rejects_a_short_row_and_a_single_name(tmp_path, capsys):
    reference = tmp_path / "ref.csv"
    reference.write_text("a,a\n", encoding="utf-8")
    edges = tmp_path / "edges.csv"
    for text, message in (
        ("node_i,node_j,precision_value\na,b\n\nc\n", f"{edges}: row 4 has fewer than 2 fields"),
        ("a,a,0.5\n", "fewer than two distinct node names found"),
    ):
        edges.write_text(text, encoding="utf-8")
        assert run_cli(["evaluate", "--edges", edges, "--reference", reference]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: InvalidInputError: {message}\n"
        assert captured.out == ""


def test_evaluate_strict_universe_rejects_unknown_names(tmp_path, sample_csv, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("node_i,node_j,precision_value\ng0,g1,0.5\n", encoding="utf-8")
    reference = tmp_path / "ref.csv"
    reference.write_text("g0,unknown_gene\n", encoding="utf-8")
    code = run_cli(
        ["evaluate", "--edges", edges, "--reference", reference, "--data", sample_csv]
    )
    assert code == 1
    assert "UnmatchedNodeError" in capsys.readouterr().err


def test_environment_variable_sets_default_threads(tmp_path, sample_csv, monkeypatch):
    monkeypatch.setenv("GGMSELECT_THREADS", "4")
    prefix = tmp_path / "env"
    assert (
        run_cli(["robsel", "-i", sample_csv, "--alpha", "0.3", "--bootstrap", "16",
                 "--seed", "1", "--no-fit", "-o", prefix])
        == 0
    )
    assert (tmp_path / "env.lambda.csv").exists()


def test_invalid_threads_environment_variable_is_usage_error(
    tmp_path, sample_csv, monkeypatch, capsys
):
    args = ["robsel", "-i", sample_csv, "--alpha", "0.3", "--bootstrap", "16", "--no-fit",
            "-o", tmp_path / "env"]
    for raw in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("GGMSELECT_THREADS", raw)
        with pytest.raises(SystemExit) as excinfo:
            run_cli(args)
        assert excinfo.value.code == 2
        assert f"GGMSELECT_THREADS must be an integer >= 1, got {raw!r}" in capsys.readouterr().err
        # An explicit --threads does not read the variable.
        assert run_cli(["--threads", "2", *args]) == 0
    monkeypatch.setenv("GGMSELECT_THREADS", "")
    assert run_cli(args) == 0


def test_cli_entry_point_runs_as_subprocess(tmp_path, sample_csv):
    result = subprocess.run(
        [sys.executable, "-m", "ggmselect", "robsel", "-i", str(sample_csv),
         "--alpha", "0.5", "--bootstrap", "10", "--seed", "2", "--no-fit"],
        capture_output=True,
        text=True,
        check=True,
        env=subprocess_env(),
    )
    assert result.stdout.splitlines()[0] == "alpha = 0.5"


def test_cli_commands_import_no_scipy(tmp_path, sample_csv):
    # A fresh interpreter, so no module this test process loaded can hide one.
    plan = tmp_path / "plan.cfg"
    plan.write_text(
        "d = 6\nedge_prob = 0.2\nsample_sizes = 40\nreplications = 1\n"
        "alphas = 0.2\nbootstrap = 10\nseed = 1\nmethods = robsel, holm\n",
        encoding="utf-8",
    )
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        from ggmselect import cli

        runs = [
            ["robsel", "-i", {str(sample_csv)!r}, "--alpha", "0.3", "--bootstrap", "10",
             "-o", {str(tmp_path / "r")!r}],
            ["tune", "-i", {str(sample_csv)!r}, "--method", "ebic", "--grid-size", "3",
             "-o", {str(tmp_path / "t")!r}],
            ["experiment", "--config", {str(plan)!r}, "-o", {str(tmp_path / "e")!r}],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=subprocess_env(), cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]
    assert (tmp_path / "r.precision.csv").exists()
