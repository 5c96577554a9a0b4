"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible under ``pytest -s`` or with ``-rA``). Criteria 3 and 6 exercise the
large-sample regime of the bootstrap penalty selection; see the printed
per-cell measurements for the observed error rates.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

import ggmselect as gs
from ggmselect.core import _cov
from ggmselect.robsel import bootstrap_rwp_samples, order_statistic_rank
from ggmselect.simulation import _child_seed
from ggmselect.tuning import _pick_minimum

from helpers import brute_force_objective_d2, random_covariance, subprocess_env

SWEEP_SEED = 20250809


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: solver correctness on random instances


def test_c01_solver_correctness():
    rng = np.random.default_rng(101)
    checked = 0
    worst_kkt = 0.0
    worst_inverse_gap = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 11))
        A = random_covariance(rng, d)
        s_max = gs.max_offdiag_abs(A)
        for lam in (0.0, 0.05, 0.2, s_max):
            config = gs.SolverConfig(lam=lam)
            result = gs.glasso(A, config)
            residual = gs.kkt_residual(result.precision, A, config)
            worst_kkt = max(worst_kkt, residual)
            assert result.converged and residual <= 1e-6
            if lam == 0.0:
                gap = float(np.abs(result.precision - np.linalg.inv(A)).max())
                worst_inverse_gap = max(worst_inverse_gap, gap)
                assert gap <= 1e-8
        offdiag = gs.glasso(A, gs.SolverConfig(lam=s_max, penalize_diagonal=False))
        off = offdiag.precision.copy()
        np.fill_diagonal(off, 0.0)
        assert np.abs(off).max() == 0.0
        checked += 1
    announce(
        1,
        checked == 50,
        f"50 instances x 4 penalties; max kkt residual {worst_kkt:.2e}, "
        f"max inverse gap {worst_inverse_gap:.2e}, saturated fits exactly diagonal",
    )


# ---------------------------------------------------------------------------
# criterion 2: d = 2 brute-force oracle equivalence


def test_c02_solver_oracle_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(20):
        X = rng.standard_normal((40, 2)) @ np.array([[1.0, 0.0], [0.7, 0.9]])
        A = gs.empirical_covariance(X)
        lam = float(rng.uniform(0.02, 0.4))
        penalize = bool(trial % 2)
        result = gs.glasso(A, gs.SolverConfig(lam=lam, penalize_diagonal=penalize))
        oracle = brute_force_objective_d2(A, lam, penalize)
        worst = max(worst, abs(result.objective - oracle))
    announce(2, worst <= 1e-6, f"20 instances, max objective gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 3 and 6: the reduced-scale error rate sweep


@pytest.fixture(scope="module")
def fwer_sweep():
    plan = gs.ExperimentPlan(
        d=50,
        edge_prob=0.02,
        sample_sizes=[800, 3200],
        replications=100,
        alphas=[0.05, 0.1],
        B=200,
        seed=SWEEP_SEED,
        methods=["robsel", "holm"],
    )
    report = gs.run_experiment(plan, threads=4)
    return plan, report


def test_c03_fwer_bound(fwer_sweep):
    plan, report = fwer_sweep
    cells = []
    ok = True
    for cell in report.summaries():
        if cell.method != "robsel":
            continue
        bound = cell.alpha + 2.0 * math.sqrt(
            cell.alpha * (1.0 - cell.alpha) / plan.replications
        )
        fwer = cell.means["fwer"]
        good = fwer <= bound
        ok = ok and good
        cells.append(
            f"n={cell.n} alpha={cell.alpha}: fwer={fwer:.3f} bound={bound:.3f} "
            f"{'ok' if good else 'VIOLATED'}"
        )
    announce(3, ok, "; ".join(cells))


def test_c06_method_similarity_trend(fwer_sweep):
    _, report = fwer_sweep
    means = {
        (cell.n, cell.alpha): cell.means["jaccard_robsel_holm"]
        for cell in report.summaries()
        if cell.method == "robsel"
    }
    small, large = means[(800, 0.1)], means[(3200, 0.1)]
    announce(
        6,
        large > small,
        f"mean Jaccard(robsel, holm) at alpha=0.1: n=800 -> {small:.4f}, "
        f"n=3200 -> {large:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 4: square-root-n scaling of the selected penalty


def test_c04_penalty_scaling():
    truth = gs.generate_precision(50, 0.02, seed=404)
    ratios = {400: [], 800: []}
    for replicate in range(50):
        lams = {}
        for n in (400, 800, 1600, 3200):
            data = gs.sample_gaussian(truth, n, _child_seed(404, n, replicate, 1))
            config = gs.RobselConfig(B=100, seed=_child_seed(404, n, replicate, 2))
            lams[n] = gs.robsel_lambda(data, 0.1, config).lam
        ratios[400].append(lams[400] / lams[1600])
        ratios[800].append(lams[800] / lams[3200])
    medians = {n: float(np.median(vals)) for n, vals in ratios.items()}
    ok = all(1.6 <= m <= 2.5 for m in medians.values())
    announce(
        4,
        ok,
        f"median lambda(n)/lambda(4n): n=400 -> {medians[400]:.3f}, "
        f"n=800 -> {medians[800]:.3f}, target [1.6, 2.5]",
    )


# ---------------------------------------------------------------------------
# criterion 5: testing baseline under the global null


def stepdown_oracle(pvals):
    pvals = np.asarray(pvals, dtype=float)
    m = pvals.size
    order = np.argsort(pvals, kind="stable")
    adjusted = np.empty(m)
    for position, index in enumerate(order):
        best = 0.0
        for b in range(position + 1):
            best = max(best, min((m - b) * pvals[order[b]], 1.0))
        adjusted[index] = best
    return adjusted


def test_c05_testing_baseline():
    d, n, alpha, replicates = 10, 500, 0.05, 100
    rng = np.random.default_rng(505)
    false_alarms = 0
    subset_ok = True
    for _ in range(replicates):
        data = rng.standard_normal((n, d))
        A = gs.empirical_covariance(data)
        holm = gs.testing_select(A, n, alpha=alpha, method="holm")
        bonferroni = gs.testing_select(A, n, alpha=alpha, method="bonferroni")
        false_alarms += len(holm.edges) > 0
        subset_ok = subset_ok and bonferroni.edges.edges <= holm.edges.edges
    fwer = false_alarms / replicates
    bound = alpha + 2.0 * math.sqrt(alpha * (1.0 - alpha) / replicates)

    oracle_ok = True
    for _ in range(100):
        pvals = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 40)))
        oracle_ok = oracle_ok and np.array_equal(
            gs.adjust_pvalues(pvals, "holm"), stepdown_oracle(pvals)
        )

    ok = fwer <= bound and oracle_ok and subset_ok
    announce(
        5,
        ok,
        f"holm null fwer={fwer:.3f} bound={bound:.3f}; step-down oracle exact on "
        f"100 vectors: {oracle_ok}; bonferroni subset of holm: {subset_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 7: metrics exactness by enumeration


def test_c07_metrics_exactness():
    d = 5
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    rng = np.random.default_rng(707)

    def from_mask(mask):
        return gs.EdgeSet(
            d, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        )

    checked = 0
    for _ in range(10_000):
        mask_a, mask_b = int(rng.integers(0, 1024)), int(rng.integers(0, 1024))
        estimated, truth = from_mask(mask_a), from_mask(mask_b)
        counts = gs.confusion(estimated, truth)
        record = gs.metrics_from_confusion(counts)

        tp = fp = tn = fn = 0
        for k in range(10):
            in_est = bool(mask_a >> k & 1)
            in_truth = bool(mask_b >> k & 1)
            tp += in_est and in_truth
            fp += in_est and not in_truth
            fn += not in_est and in_truth
            tn += not (in_est or in_truth)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        assert record.tpr == (tp / (tp + fn) if tp + fn else None)
        assert record.fpr == (fp / (fp + tn) if fp + tn else None)
        factors = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        expected_mcc = 0.0 if factors == 0 else (tp * tn - fp * fn) / math.sqrt(factors)
        assert record.mcc == expected_mcc
        union = tp + fp + fn
        assert record.jaccard == (1.0 if union == 0 else tp / union)
        assert record.fwer_indicator == (1 if fp else 0)
        checked += 1
    assert gs.metrics_from_confusion(gs.confusion(from_mask(0), from_mask(0))).jaccard == 1.0
    announce(7, checked == 10_000, "10,000 sampled support pairs match enumeration; J(empty, empty) = 1")


# ---------------------------------------------------------------------------
# criterion 8: tuning plumbing


def test_c08_tuning_plumbing():
    rng = np.random.default_rng(808)

    # geometric spacing
    A = random_covariance(rng, 6)
    spacing_ok = True
    for size in (2, 5, 10):
        grid = gs.lambda_grid(A, size)
        ratios = grid.values[1:] / grid.values[:-1]
        spacing_ok = spacing_ok and np.allclose(
            ratios, 0.05 ** (1.0 / (size - 1)), rtol=1e-12
        )

    # term-by-term EBIC oracle
    d, n, gamma = 5, 75, 0.5
    K = gs.glasso(random_covariance(rng, d), gs.SolverConfig(lam=0.1)).precision
    A5 = random_covariance(rng, d)
    logdet = float(np.sum(np.log(np.linalg.eigvalsh(K))))
    trace = sum(K[i, j] * A5[j, i] for i in range(d) for j in range(d))
    edges = sum(1 for i in range(d) for j in range(i + 1, d) if abs(K[i, j]) > 1e-8)
    oracle = (
        -2.0 * (0.5 * n * (logdet - trace))
        + edges * math.log(n)
        + 4.0 * gamma * edges * math.log(d)
    )
    ebic_gap = abs(gs.ebic_score(K, A5, n, gamma) - oracle)

    # exhaustive leave-one-out cross-validation on n = 6, d = 2
    values = rng.standard_normal((6, 2))
    data = gs.DataMatrix(values)
    grid = gs.lambda_grid(gs.empirical_covariance(data), 4)
    result = gs.cv_select(data, folds=6, grid=grid, seed=11)
    oracle_scores = []
    for lam in grid.values:
        total = 0.0
        for leave in range(6):
            train = np.delete(values, leave, axis=0)
            fit = gs.glasso(gs.empirical_covariance(train), gs.SolverConfig(lam=float(lam)))
            sign, logdet = np.linalg.slogdet(fit.precision)
            total += -logdet  # validation covariance of a single row is zero
        oracle_scores.append(total / 6)
    loo_gap = max(
        abs(score - expected)
        for (_, score), expected in zip(result.scores, oracle_scores)
    )
    chosen_ok = result.chosen_lambda == _pick_minimum(
        list(zip(grid.values.tolist(), oracle_scores))
    )

    ok = spacing_ok and ebic_gap <= 1e-10 and loo_gap <= 1e-7 and chosen_ok
    announce(
        8,
        ok,
        f"grid geometric: {spacing_ok}; ebic oracle gap {ebic_gap:.2e}; "
        f"loo score gap {loo_gap:.2e}; loo chosen lambda matches: {chosen_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism across reruns and thread counts


def run_cli(args, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "ggmselect", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_c09_cli_determinism(tmp_path):
    base = tmp_path
    run_cli(
        ["simulate", "--d", "8", "--edge-prob", "0.15", "--n", "60", "--seed", "5",
         "-o", base / "sim"],
        base,
    )
    data = base / "sim.data.csv"
    reference = base / "ref.csv"
    reference.write_text("V1,V2\nV2,V3\n", encoding="utf-8")
    plan = base / "plan.cfg"
    plan.write_text(
        "d = 8\nedge_prob = 0.15\nsample_sizes = 40\nreplications = 2\n"
        "alphas = 0.2\nbootstrap = 20\nseed = 5\nmethods = robsel, holm\n",
        encoding="utf-8",
    )

    commands = {
        "simulate": ["simulate", "--d", "8", "--edge-prob", "0.15", "--n", "60",
                     "--seed", "5", "-o", None],
        "fit": ["fit", "-i", data, "--lambda", "0.2", "-o", None],
        "robsel": ["robsel", "-i", data, "--alpha", "0.2", "--bootstrap", "40",
                   "--seed", "3", "-o", None],
        "test": ["test", "-i", data, "--alpha", "0.2", "--method", "holm", "-o", None],
        "tune-cv": ["tune", "-i", data, "--method", "cv", "--folds", "3",
                    "--grid-size", "4", "--seed", "2", "-o", None],
        "tune-ebic": ["tune", "-i", data, "--method", "ebic", "--grid-size", "4",
                      "-o", None],
        "experiment": ["experiment", "--config", plan, "-o", None],
    }

    identical = True
    details = []
    for name, template in commands.items():
        outputs = {}
        for variant, threads in (("a", 1), ("b", 1), ("c", 8)):
            prefix = base / f"{name}-{variant}"
            args = ["--threads", threads] + [
                prefix if item is None else item for item in template
            ]
            run_cli(args, base)
            outputs[variant] = {
                path.name.removeprefix(f"{name}-{variant}"): path.read_bytes()
                for path in sorted(base.glob(f"{name}-{variant}.*"))
            }
        same = outputs["a"] == outputs["b"] == outputs["c"]
        identical = identical and same and len(outputs["a"]) > 0
        details.append(f"{name}: {'ok' if same else 'DIFFERS'}")

    # evaluate writes one output file and must match across reruns too
    eval_outputs = {}
    for variant, threads in (("a", 1), ("b", 1), ("c", 8)):
        prefix = base / f"eval-{variant}"
        run_cli(
            ["--threads", threads, "evaluate", "--edges", base / "fit-a.edges.csv",
             "--reference", reference, "-o", prefix],
            base,
        )
        eval_outputs[variant] = (base / f"eval-{variant}.validation.csv").read_bytes()
    same = eval_outputs["a"] == eval_outputs["b"] == eval_outputs["c"]
    identical = identical and same
    details.append(f"evaluate: {'ok' if same else 'DIFFERS'}")

    announce(9, identical, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 10: edge validation arithmetic


def test_c10_validated_edge_arithmetic():
    d = 60
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]

    estimated = gs.EdgeSet(d, frozenset(pairs[:693]))
    reference = gs.EdgeSet(d, frozenset(pairs[:89]))
    table_shaped = gs.validated_edge_report(estimated, reference)
    table_ok = (
        table_shaped.estimated_edges == 693
        and table_shaped.validated_edges == 89
        and table_shaped.proportion == 89 / 693
        and round(table_shaped.proportion, 4) == 0.1284
    )

    subset = gs.validated_edge_report(
        gs.EdgeSet(d, frozenset(pairs[:10])), gs.EdgeSet(d, frozenset(pairs[:40]))
    )
    disjoint = gs.validated_edge_report(
        gs.EdgeSet(d, frozenset(pairs[:10])), gs.EdgeSet(d, frozenset(pairs[10:40]))
    )
    empty = gs.validated_edge_report(gs.EdgeSet(d), reference)
    ok = (
        table_ok
        and subset.proportion == 1.0
        and disjoint.proportion == 0.0
        and empty.proportion is None
    )
    announce(
        10,
        ok,
        f"89/693 = {table_shaped.proportion:.6f} (rounds to 0.1284); subset -> 1.0; "
        "disjoint -> 0.0; empty estimate -> undefined",
    )
