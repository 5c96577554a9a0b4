import math
import re
from pathlib import Path

import numpy as np
import pytest

import ggmselect as gs
from ggmselect import InvalidInputError, simulation


def test_generated_truth_invariants():
    for seed in range(10):
        truth = gs.generate_precision(30, 0.05, seed=seed)
        np.linalg.cholesky(truth.omega)  # PD
        diagonal = np.diag(truth.omega)
        assert np.all(diagonal >= 1.0) and np.all(diagonal <= 1.5)
        assert truth.edges.edges == gs.edges_from_precision(truth.omega, 0.0).edges
        assert np.allclose(truth.omega @ truth.sigma, np.eye(30), atol=1e-10)


def test_zero_edge_truth_is_diagonal():
    truth = gs.generate_precision(4, 0.01, seed=0)
    assert len(truth.edges) == 0
    off = truth.omega.copy()
    np.fill_diagonal(off, 0.0)
    assert np.abs(off).max() == 0.0
    np.linalg.cholesky(truth.omega)


def test_edge_count_concentration():
    # Binomial(4950, 0.02) mass inside [60, 140] for nearly every draw
    inside = 0
    for seed in range(200):
        truth = gs.generate_precision(100, 0.02, seed=10_000 + seed)
        if 60 <= len(truth.edges) <= 140:
            inside += 1
    assert inside >= 190


def test_generate_precision_validation():
    with pytest.raises(InvalidInputError):
        gs.generate_precision(1, 0.1, seed=0)
    with pytest.raises(InvalidInputError):
        gs.generate_precision(5, 0.0, seed=0)
    with pytest.raises(InvalidInputError):
        gs.generate_precision(5, 1.0, seed=0)


def test_negative_seed_is_rejected_before_sampling():
    with pytest.raises(InvalidInputError, match="seed must be nonnegative, got -1"):
        gs.generate_precision(5, 0.2, seed=-1)
    truth = gs.generate_precision(5, 0.2, seed=0)
    with pytest.raises(InvalidInputError, match="seed must be nonnegative, got -2"):
        gs.sample_gaussian(truth, 10, seed=-2)


def test_sampling_needs_two_rows():
    truth = gs.generate_precision(5, 0.3, seed=0)
    with pytest.raises(InvalidInputError, match="n must be >= 2, got 1"):
        gs.sample_gaussian(truth, 1, seed=0)
    assert gs.sample_gaussian(truth, 2, seed=0).n == 2


def test_sampling_determinism_and_prefix():
    truth = gs.generate_precision(6, 0.2, seed=1)
    first = gs.sample_gaussian(truth, 7, seed=9)
    again = gs.sample_gaussian(truth, 7, seed=9)
    assert np.array_equal(first.values, again.values)
    longer = gs.sample_gaussian(truth, 12, seed=9)
    assert np.array_equal(first.values, longer.values[:7])


def test_sampling_law_of_large_numbers():
    truth = gs.GroundTruth(
        omega=np.eye(3), edges=gs.EdgeSet(3), sigma=np.eye(3)
    )
    data = gs.sample_gaussian(truth, 100_000, seed=5)
    A = gs.empirical_covariance(data)
    assert np.abs(A - np.eye(3)).max() <= 0.05


def test_sampling_no_centering_applied():
    truth = gs.generate_precision(4, 0.2, seed=2)
    data = gs.sample_gaussian(truth, 2000, seed=3)
    mean = data.values.mean(axis=0)
    assert np.abs(mean).max() > 0.0  # only zero in expectation
    assert np.abs(mean).max() < 0.2


def test_experiment_bookkeeping_single_cell():
    methods = ["robsel", "holm", "bonferroni", "sidak", "cv", "ebic"]
    plan = gs.ExperimentPlan(
        d=8,
        edge_prob=0.1,
        sample_sizes=[60],
        replications=1,
        alphas=[0.1],
        B=25,
        seed=4,
        methods=methods,
    )
    report = gs.run_experiment(plan)
    assert len(report.records) == len(methods)
    by_method = {record.method: record for record in report.records}
    assert set(by_method) == set(methods)
    assert by_method["robsel"].lam is not None
    assert by_method["robsel"].jaccard_robsel_holm is not None
    assert by_method["holm"].alpha == 0.1
    assert by_method["cv"].alpha is None
    assert by_method["cv"].lam is not None
    # timings are opt-in so that reports are reproducible byte for byte
    assert all(record.runtime_seconds is None for record in report.records)


def test_experiment_holm_not_applicable_cells():
    plan = gs.ExperimentPlan(
        d=10,
        edge_prob=0.1,
        sample_sizes=[8, 60],
        replications=2,
        alphas=[0.2],
        B=20,
        seed=6,
        methods=["robsel", "holm"],
    )
    report = gs.run_experiment(plan)
    holm_small = [r for r in report.records if r.method == "holm" and r.n == 8]
    assert len(holm_small) == 2
    assert all(r.fwer_indicator is None and r.tpr is None for r in holm_small)
    holm_large = [r for r in report.records if r.method == "holm" and r.n == 60]
    assert all(r.fwer_indicator is not None for r in holm_large)
    robsel_small = [r for r in report.records if r.method == "robsel" and r.n == 8]
    assert all(r.fwer_indicator is not None for r in robsel_small)
    assert all(r.jaccard_robsel_holm is None for r in robsel_small)


def test_experiment_testing_cells_at_small_n_are_silent(capsys):
    # At n = 8 = d the covariance is singular; the n > d + 1 rule must mark
    # the testing cells not applicable before partial correlations are tried.
    plan = gs.ExperimentPlan(
        d=8,
        edge_prob=0.2,
        sample_sizes=[8, 9],
        replications=3,
        B=20,
        methods=["robsel", "holm", "bonferroni"],
    )
    report = gs.run_experiment(plan)
    assert "warning:" not in capsys.readouterr().err
    testing = [r for r in report.records if r.method in ("holm", "bonferroni")]
    assert {r.n for r in testing} == {8, 9} and len(testing) == 2 * 2 * 3 * 2
    assert all(r.fwer_indicator is None and r.tpr is None for r in testing)
    robsel = [r for r in report.records if r.method == "robsel"]
    assert all(r.fwer_indicator is not None for r in robsel)


def test_sweep_cells_agree_with_public_selectors():
    plan = gs.ExperimentPlan(
        d=8,
        edge_prob=0.2,
        sample_sizes=[40],
        replications=2,
        alphas=[0.1, 0.3],
        B=20,
        seed=8,
        methods=["robsel", "holm", "bonferroni", "sidak", "cv", "ebic"],
        folds=3,
        grid_size=5,
    )
    report = gs.run_experiment(plan)
    truth = gs.generate_precision(plan.d, plan.edge_prob, plan.seed)
    checked = 0
    for r in report.records:
        keys = (plan.seed, r.n, r.replicate)
        data = gs.sample_gaussian(truth, r.n, simulation._child_seed(*keys, 1))
        A = gs.empirical_covariance(data)
        if r.method == "robsel":
            config = gs.RobselConfig(B=plan.B, seed=simulation._child_seed(*keys, 2))
            assert r.lam == gs.robsel_lambda(data, r.alpha, config).lam
        elif r.method in ("cv", "ebic"):
            grid = gs.lambda_grid(A, 5)
            if r.method == "cv":
                tuned = gs.cv_select(data, 3, grid, seed=simulation._child_seed(*keys, 3))
            else:
                tuned = gs.ebic_select(A, grid, r.n)
            assert r.lam == tuned.chosen_lambda
        else:
            edges = gs.testing_select(A, r.n, r.alpha, method=r.method).edges
            scores = gs.metrics_from_confusion(gs.confusion(edges, truth.edges))
            assert (r.tpr, r.fpr) == (scores.tpr, scores.fpr)
        checked += 1
    assert checked == 2 * (4 * 2 + 2)


def test_recorded_timings_cover_exactly_the_defined_cells():
    # n = 8 = d leaves the testing cells undefined.
    plan = gs.ExperimentPlan(
        d=8,
        edge_prob=0.2,
        sample_sizes=[8, 40],
        replications=2,
        alphas=[0.1, 0.3],
        B=20,
        methods=["robsel", "holm", "sidak", "ebic"],
        grid_size=4,
    )
    report = gs.run_experiment(plan, record_timings=True)
    undefined = [r for r in report.records if r.fwer_indicator is None]
    defined = [r for r in report.records if r.fwer_indicator is not None]
    assert {(r.method, r.n) for r in undefined} == {("holm", 8), ("sidak", 8)}
    assert all(r.runtime_seconds is None for r in undefined)
    assert len(defined) == 2 * (2 + 2 + 2 + 1) + 2 * (2 + 1)
    assert all(r.runtime_seconds >= 0 for r in defined)


def test_failed_bootstrap_blanks_only_the_robsel_cells(monkeypatch, capsys):
    def broken_bootstrap(data, config):
        raise gs.SingularInputError("broken bootstrap")

    monkeypatch.setattr(simulation, "bootstrap_rwp_samples", broken_bootstrap)
    plan = gs.ExperimentPlan(
        d=6,
        edge_prob=0.3,
        sample_sizes=[40],
        replications=2,
        alphas=[0.1, 0.3],
        B=10,
        methods=["robsel", "holm"],
    )
    report = gs.run_experiment(plan)
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"warning: robsel failed at (n=40, r={r}): broken bootstrap" for r in (1, 2)
    ]
    robsel = [r for r in report.records if r.method == "robsel"]
    holm = [r for r in report.records if r.method == "holm"]
    assert len(robsel) == len(holm) == 4
    assert all(r.fwer_indicator is None and r.lam is None for r in robsel)
    assert all(r.fwer_indicator is not None and r.tpr is not None for r in holm)


def test_sweep_rows_do_not_depend_on_the_order_of_the_methods():
    # robsel's rows read Holm's edges, so the methods do not run in plan order.
    settings = dict(
        d=8, edge_prob=0.2, sample_sizes=[8, 40], replications=2, alphas=[0.1, 0.3], B=20,
        seed=9, folds=3, grid_size=5,
    )
    for methods in (list(simulation.KNOWN_METHODS), ["holm", "robsel"]):
        forward = gs.run_experiment(gs.ExperimentPlan(**settings, methods=methods))
        backward = gs.run_experiment(gs.ExperimentPlan(**settings, methods=methods[::-1]))
        assert forward.records == backward.records
        paired = [r for r in forward.records if r.jaccard_robsel_holm is not None]
        assert {(r.method, r.n) for r in paired} == {("robsel", 40)} and len(paired) == 4


def test_experiment_schedule_independent():
    plan = gs.ExperimentPlan(
        d=8,
        edge_prob=0.1,
        sample_sizes=[40, 80],
        replications=3,
        alphas=[0.1, 0.5],
        B=30,
        seed=11,
        methods=["robsel", "holm"],
    )
    serial = gs.run_experiment(plan)
    threaded = gs.run_experiment(plan, threads=4)
    assert serial.records == threaded.records


def test_experiment_rejects_unknown_method():
    with pytest.raises(InvalidInputError, match="unknown method"):
        gs.ExperimentPlan(
            d=5,
            edge_prob=0.1,
            sample_sizes=[20],
            replications=1,
            alphas=[0.1],
            B=5,
            seed=0,
            methods=["robsel", "mystery"],
        )


def test_summaries_aggregate_means_and_ses():
    plan = gs.ExperimentPlan(
        d=8,
        edge_prob=0.1,
        sample_sizes=[50],
        replications=4,
        alphas=[0.2],
        B=20,
        seed=13,
        methods=["robsel"],
    )
    report = gs.run_experiment(plan)
    (cell,) = report.summaries()
    assert cell.replicates == 4
    rows = [r for r in report.records]
    expected_fwer = np.mean([r.fwer_indicator for r in rows])
    assert cell.means["fwer"] == pytest.approx(expected_fwer)
    expected_lambda_se = np.std([r.lam for r in rows], ddof=1) / np.sqrt(4)
    assert cell.standard_errors["lambda"] == pytest.approx(expected_lambda_se)
    assert cell.means["runtime_seconds"] is None


def test_replicates_csv_round_trip(tmp_path):
    plan = gs.ExperimentPlan(
        d=6,
        edge_prob=0.15,
        sample_sizes=[40],
        replications=2,
        alphas=[0.3],
        B=10,
        seed=21,
        methods=["robsel", "holm"],
    )
    report = gs.run_experiment(plan)
    path = tmp_path / "replicates.csv"
    gs.write_replicates_csv(report, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "method",
        "n",
        "alpha",
        "replicate",
        "fwer_indicator",
        "tpr",
        "fpr",
        "mcc",
        "jaccard_vs_truth",
        "jaccard_robsel_holm",
        "lambda",
        "runtime_seconds",
    ]
    assert len(lines) == 1 + len(report.records)
    summary_path = tmp_path / "summary.csv"
    gs.write_summary_csv(report, summary_path)
    summary_lines = summary_path.read_text(encoding="utf-8").strip().splitlines()
    assert summary_lines[0] == (
        "method,n,alpha,replicates,fwer,fwer_se,tpr,tpr_se,fpr,fpr_se,mcc,mcc_se,"
        "jaccard_vs_truth,jaccard_vs_truth_se,jaccard_robsel_holm,jaccard_robsel_holm_se,"
        "lambda,lambda_se,runtime_seconds,runtime_seconds_se"
    )
    assert len(summary_lines) == 1 + len(report.summaries())


def test_one_replicate_summary_has_empty_standard_errors(tmp_path):
    plan = gs.ExperimentPlan(
        d=6,
        edge_prob=0.15,
        sample_sizes=[40],
        replications=1,
        alphas=[0.3],
        B=10,
        seed=21,
        methods=["robsel", "holm"],
    )
    path = tmp_path / "summary.csv"
    gs.write_summary_csv(gs.run_experiment(plan), path)
    header, *rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    assert [row[0] for row in rows] == ["holm", "robsel"]
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["replicates"] == "1"
        assert cells["fwer"] in ("0", "1")
        assert [cells[name] for name in header if name.endswith("_se")] == [""] * 8


def test_plan_config_parsing(tmp_path):
    config = tmp_path / "plan.cfg"
    config.write_text(
        "# comment\n"
        "d = 12\n"
        "edge_prob = 0.05\n"
        "sample_sizes = 50, 100\n"
        "replications = 2\n"
        "alphas = 0.05, 0.1\n"
        "bootstrap = 30\n"
        "seed = 3\n"
        "methods = robsel, holm\n"
        "gamma = 0.25\n"
        "penalize_diagonal = false\n",
        encoding="utf-8",
    )
    plan = gs.load_experiment_config(config)
    assert plan.d == 12 and plan.B == 30 and plan.sample_sizes == [50, 100]
    assert plan.methods == ["robsel", "holm"]
    assert plan.gamma == 0.25
    assert plan.penalize_diagonal is False
    assert gs.SolverConfig.from_settings(plan, 0.1) == gs.SolverConfig(
        lam=0.1, penalize_diagonal=False
    )


def test_plan_config_parses_readme_example(tmp_path):
    # The plan shown under "Experiment plan files" in the README, verbatim,
    # including its trailing comment after the method list.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiment plan files", 1)[1]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "plan.cfg"
    config.write_text(example, encoding="utf-8")
    plan = gs.load_experiment_config(config)
    assert plan == gs.ExperimentPlan(
        d=50,
        edge_prob=0.02,
        sample_sizes=[200, 800, 3200],
        replications=100,
        alphas=[0.05, 0.1],
        B=200,
        seed=7,
    )
    assert plan.methods == ["robsel", "holm"]
    # The README says its commented "# key = value" lines are the defaults:
    # with them uncommented, the plan is still the default one but for seed.
    uncommented = re.sub(r"(?m)^# (\w+ = )", r"\1", example)
    assert uncommented.count("\n# ") == 1  # only the line that introduces them
    config.write_text(uncommented, encoding="utf-8")
    assert gs.load_experiment_config(config) == gs.ExperimentPlan(seed=7)


def test_plan_config_reads_a_byte_order_mark(tmp_path):
    # As every other reader does: a plan saved with a BOM once failed with
    # "unknown key '\ufeffd' on line 1".
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text("d = 12\nseed = 3\n", encoding="utf-8")
    marked.write_text("d = 12\nseed = 3\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert gs.load_experiment_config(marked) == gs.load_experiment_config(plain)
    assert gs.load_experiment_config(marked) == gs.ExperimentPlan(d=12, seed=3)


def test_plan_config_defaults(tmp_path):
    config = tmp_path / "plan.cfg"
    config.write_text("# nothing but comments\n\n   # d = 10\n", encoding="utf-8")
    plan = gs.load_experiment_config(config)
    assert plan == gs.ExperimentPlan()
    assert plan == gs.ExperimentPlan(
        d=50,
        edge_prob=0.02,
        sample_sizes=[200, 800, 3200],
        replications=100,
        alphas=[0.05, 0.1],
        B=200,
        seed=0,
    )
    assert plan.methods == ["robsel", "holm"]
    assert gs.SolverConfig.from_settings(plan, 0.0) == gs.SolverConfig(
        lam=0.0, penalize_diagonal=True, kkt_tol=1e-6, max_sweeps=500
    )
    assert (plan.zero_tol, plan.folds, plan.gamma, plan.grid_size) == (1e-8, 5, 0.5, 10)


def test_plan_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "plan.cfg"
    # "B" is the ExperimentPlan field; the plan key that sets it is "bootstrap".
    for key in ("mystery", "B"):
        config.write_text(f"d = 5\n{key} = 1\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match=f"unknown key '{key}' on line 2"):
            gs.load_experiment_config(config)


def test_plan_config_rejects_a_repeated_key(tmp_path):
    # The same value twice is rejected too: neither line silently wins.
    config = tmp_path / "plan.cfg"
    for second in ("alphas = 0.2", "alphas = 0.1"):
        config.write_text(f"alphas = 0.1\nd = 5\n\n{second}  # again\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="key 'alphas' on line 4 repeats line 1"):
            gs.load_experiment_config(config)


def test_plan_config_rejects_bad_value(tmp_path):
    config = tmp_path / "plan.cfg"
    # Each key is parsed as the type of its default: bool, int, float or a list.
    for line in (
        "d = five",
        "d = 2.5",
        "penalize_diagonal = maybe",
        "sample_sizes = 10, x",
        "alphas = 0.1, y",
    ):
        config.write_text(line + "\n", encoding="utf-8")
        key, _, raw = (part.strip() for part in line.partition("="))
        message = re.escape(f"invalid value for {key!r}: {raw!r}")
        with pytest.raises(InvalidInputError, match=message):
            gs.load_experiment_config(config)
    config.write_text("d = 5\nreplications 2\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match="line 2 is not 'key = value'"):
        gs.load_experiment_config(config)


def test_plan_validation():
    with pytest.raises(InvalidInputError):
        gs.ExperimentPlan(
            d=1, edge_prob=0.1, sample_sizes=[10], replications=1, alphas=[0.1]
        )
    with pytest.raises(InvalidInputError):
        gs.ExperimentPlan(
            d=5, edge_prob=0.1, sample_sizes=[], replications=1, alphas=[0.1]
        )
    with pytest.raises(InvalidInputError):
        gs.ExperimentPlan(
            d=5, edge_prob=0.1, sample_sizes=[10], replications=1, alphas=[1.5]
        )
    with pytest.raises(InvalidInputError, match="sample sizes must be >= 2"):
        gs.ExperimentPlan(sample_sizes=[10, 1])
    with pytest.raises(InvalidInputError, match="replications must be >= 1"):
        gs.ExperimentPlan(replications=0)
    # The solver fields are checked when the plan is built, not per cell.
    with pytest.raises(InvalidInputError, match="kkt_tol"):
        gs.ExperimentPlan(kkt_tol=0.0)
    with pytest.raises(InvalidInputError, match="max_sweeps"):
        gs.ExperimentPlan(max_sweeps=0)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("folds", 1, "folds must be >= 2, got 1"),
        ("gamma", -3.0, "gamma must be finite and >= 0, got -3.0"),
        ("grid_size", 0, "grid_size must be >= 2, got 0"),
        ("zero_tol", -1.0, "zero_tol must be finite and nonnegative, got -1.0"),
        ("gamma", math.nan, "gamma must be finite and >= 0, got nan"),
        ("gamma", math.inf, "gamma must be finite and >= 0, got inf"),
        ("zero_tol", math.nan, "zero_tol must be finite and nonnegative, got nan"),
        ("zero_tol", math.inf, "zero_tol must be finite and nonnegative, got inf"),
        ("kkt_tol", math.inf, "kkt_tol must be finite and positive, got inf"),
        ("kkt_tol", math.nan, "kkt_tol must be finite and positive, got nan"),
    ],
    ids=[
        "folds", "gamma", "grid_size", "zero_tol", "gamma-nan", "gamma-inf",
        "zero_tol-nan", "zero_tol-inf", "kkt_tol-inf", "kkt_tol-nan",
    ],
)
def test_plan_rejects_tuning_setting_that_every_cell_would_reject(tmp_path, key, value, message):
    # The plan applies the rule of the function that uses the value
    # (cv_select, ebic_score, lambda_grid, edges_from_precision, SolverConfig)
    # at load. Non-finite tolerances once ran every cell and gave wrong
    # rates without a warning.
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        gs.ExperimentPlan(**{key: value})
    config = tmp_path / "plan.cfg"
    config.write_text(f"d = 5\nreplications = 2\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        gs.load_experiment_config(config)


def test_plan_rejects_repeated_values_and_empty_methods(tmp_path):
    # A repeated sample size or alpha would run copies of the same cells and
    # understate the standard errors computed over them.
    base = dict(d=5, edge_prob=0.1, sample_sizes=[40], replications=2, alphas=[0.2])
    for change, message in (
        ({"sample_sizes": [40, 40]}, "repeated value in sample_sizes"),
        ({"alphas": [0.2, 0.2]}, "repeated value in alphas"),
        ({"methods": ["holm", "robsel", "holm"]}, "repeated value in methods"),
        ({"methods": []}, "methods must name at least one"),
    ):
        with pytest.raises(InvalidInputError, match=message):
            gs.ExperimentPlan(**{**base, **change})
    config = tmp_path / "plan.cfg"
    for line, message in (
        ("sample_sizes = 40, 40", "repeated value in sample_sizes"),
        ("alphas = 0.2, 0.20", "repeated value in alphas"),
        ("methods =", "methods must name at least one"),
    ):
        config.write_text(f"d = 5\nreplications = 2\n{line}\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match=message):
            gs.load_experiment_config(config)
