"""Inputs, command lines and answer checks of the benchmark workloads.

Every input is a pure function of (seed, op index) and is made by this
file's own generator, so a change to the program cannot change what the
program is fed. The program sees only the CSV or plan files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

#: KKT tolerance passed to every solve; the answer gate checks against it.
KKT_TOL = 1e-6
#: The CLI's default edge threshold on |K_ij|.
ZERO_TOL = 1e-8
#: Precision entries of two solves that are each certified to a KKT residual
#: of at most KKT_TOL agree to a small multiple of it; the factor 100 covers
#: the conditioning of these problems (||K||_2 <= 2, so ||K||_2^2 * KKT_TOL
#: <= 4e-6). Compared relative to the largest entry.
PRECISION_RTOL = 100 * KKT_TOL
#: One edge more or less moves an EBIC score by log(n) + 4 * gamma * log(d),
#: 16.8 at n = 2000, d = 100. Scores are about 2.2e5, so 10 * KKT_TOL of the
#: largest score is 2.2: a changed edge count always fails the comparison.
SCORE_RTOL = 10 * KKT_TOL
#: Penalties are order statistics or grid points and rates are ratios of
#: counts: they agree up to rounding.
EXACT_RTOL = 1e-9

SIZES = {
    "full": {
        "robsel-d50": {"d": 50, "edge_prob": 0.02, "n": 3200, "alpha": 0.1, "B": 200},
        # n = 2000 rather than 800 halves the op cost and narrows its range,
        # while glasso stays over 90% of the op. "strata" are the octiles of
        # sigma_ratio over ground truths of this d and edge_prob, from
        # ratio_quantiles(100, 0.02, 8000, 8).
        "ebic-d100": {
            "d": 100, "edge_prob": 0.02, "n": 2000, "grid": 10, "gamma": 0.5,
            "strata": (0.6082, 0.653, 0.69, 0.7286, 0.7735, 0.8312, 0.923),
        },
        "sweep-d50": {
            "d": 50, "edge_prob": 0.02, "sizes": (800, 3200), "reps": 2,
            "alphas": (0.05, 0.1), "B": 200, "threads": 2,
        },
    },
    "tiny": {
        "robsel-d50": {"d": 8, "edge_prob": 0.2, "n": 200, "alpha": 0.1, "B": 20},
        "ebic-d100": {
            "d": 10, "edge_prob": 0.2, "n": 120, "grid": 4, "gamma": 0.5,
            "strata": (0.3886, 0.4298, 0.465, 0.4986, 0.5346, 0.5793, 0.6498),
        },
        "sweep-d50": {
            "d": 8, "edge_prob": 0.2, "sizes": (100, 200), "reps": 1,
            "alphas": (0.05, 0.1), "B": 20, "threads": 2,
        },
    },
}

WORKLOADS = tuple(SIZES["full"])


def op_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    """The random stream of op ``index``; the warm-up op uses index -1."""
    key = WORKLOADS.index(workload)
    return np.random.default_rng([seed, key, index + 1])


def stratum(workload: str, seed: int, index: int, count: int) -> int:
    """Stratum of op ``index`` out of ``count``, a power of two. Each block
    of ``count`` consecutive ops visits every stratum once, in bit-reversed
    order (0, 4, 2, 6, 1, 5, 3, 7 for 8) XORed with a mask drawn from the
    seed for the block. So the first 2, 4, ... ops of a block, and those of
    an unfinished last block, are spread evenly over the strata too, and a
    run's mix of strata does not depend on where the run ends."""
    bits = count.bit_length() - 1
    key = len(WORKLOADS) + WORKLOADS.index(workload)
    mask = int(np.random.default_rng([seed, key, index // count]).integers(count))
    position = index % count
    return int(format(position, f"0{bits}b")[::-1], 2) ^ mask


# --------------------------------------------------------------------------
# input generation


def ground_truth(d: int, edge_prob: float, rng) -> np.ndarray:
    """Sparse positive definite precision matrix, built as in the paper's
    simulation study: Erdos-Renyi support, magnitudes uniform in [0.5, 1]
    with random signs, rows scaled for diagonal dominance, diagonal uniform
    in [1, 1.5]. A draw that is not positive definite is redrawn."""
    rows, cols = np.triu_indices(d, k=1)
    while True:
        present = rng.random(rows.size) < edge_prob
        k = int(present.sum())
        omega = np.zeros((d, d))
        omega[rows[present], cols[present]] = rng.uniform(0.5, 1.0, k) * rng.choice(
            (-1.0, 1.0), k
        )
        omega += omega.T
        sums = np.abs(omega).sum(axis=1)
        omega /= np.where(sums > 0, 1.5 * sums, 1.0)[:, None]
        omega = (omega + omega.T) / 2.0
        omega[np.diag_indices(d)] = rng.uniform(1.0, 1.5, d)
        try:
            np.linalg.cholesky(omega)
        except np.linalg.LinAlgError:
            continue
        return omega


def gaussian_sample(omega: np.ndarray, n: int, rng) -> np.ndarray:
    """n zero-mean Gaussian rows with covariance omega^-1, rounded to the six
    decimals that the CSV holds, so the program reads these values back to
    within an ulp."""
    sigma = np.linalg.inv(omega)
    factor = np.linalg.cholesky((sigma + sigma.T) / 2.0)
    return np.round(rng.standard_normal((n, omega.shape[0])) @ factor.T, 6)


def covariance(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0)
    A = centered.T @ centered / x.shape[0]
    return (A + A.T) / 2.0


def s_max(A: np.ndarray) -> float:
    off = np.abs(A)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def sigma_ratio(omega: np.ndarray) -> float:
    """Largest absolute off-diagonal covariance over the mean variance, of
    the population covariance omega^-1. The sample's s_max sets where the
    EBIC grid ends, so this ratio sets how dense the end of the path gets
    and most of what an EBIC op costs: the smaller, the denser."""
    sigma = np.linalg.inv(omega)
    return s_max(sigma) / float(np.mean(np.diag(sigma)))


def ratio_quantiles(d: int, edge_prob: float, draws: int, count: int) -> list:
    """The (count - 1) inner quantiles of sigma_ratio over ``draws`` ground
    truths, the stratum bounds stored in SIZES."""
    rng = np.random.default_rng(777)
    ratios = [sigma_ratio(ground_truth(d, edge_prob, rng)) for _ in range(draws)]
    return np.quantile(ratios, np.arange(1, count) / count).tolist()


def write_csv(path: str, x: np.ndarray) -> None:
    header = ",".join(f"V{i + 1}" for i in range(x.shape[1]))
    np.savetxt(path, x, fmt="%.6f", delimiter=",", header=header, comments="")


def _draw_data(cfg, rng, bounds=None):
    """A sample of n rows and its covariance. With ``bounds`` (lo, hi), the
    ground truth is redrawn until its sigma_ratio lies in [lo, hi)."""
    while True:
        omega = ground_truth(cfg["d"], cfg["edge_prob"], rng)
        if bounds is None or bounds[0] <= sigma_ratio(omega) < bounds[1]:
            break
    x = gaussian_sample(omega, cfg["n"], rng)
    return x, covariance(x)


def prepare(workload: str, cfg: dict, seed: int, index: int, prefix: str) -> dict:
    """Write the input of op ``index`` (-1 for the warm-up) under ``prefix``;
    return its command line (arguments of ``ggmselect.cli.main``) and what
    its checks need.

    The EBIC op cost varies over inputs by a factor of three, with the
    ground truth's sigma_ratio. Its inputs are therefore drawn stratified:
    the ratio's range is cut at the octiles in ``cfg["strata"]``, and op
    ``index`` draws its ground truth from stratum ``stratum(...)``. Every
    input is still a draw from the unfiltered distribution, in equal shares
    of each stratum, but a run's mix of cheap and dear inputs no longer
    depends on the seed."""
    rng = op_rng(workload, seed, index)
    solver = ["--kkt-tol", repr(KKT_TOL)]
    if workload == "robsel-d50":
        x, A = _draw_data(cfg, rng)
        write_csv(prefix + ".csv", x)
        argv = [
            "--threads", "1", "robsel", "--input", prefix + ".csv",
            "--alpha", repr(cfg["alpha"]), "--bootstrap", str(cfg["B"]),
            "--seed", str(int(rng.integers(0, 2**31))), "-o", prefix, *solver,
        ]
        return {"argv": argv, "prefix": prefix, "A": A}
    if workload == "ebic-d100":
        edges = (-math.inf, *cfg["strata"], math.inf)
        k = stratum(workload, seed, max(index, 0), len(edges) - 1)
        x, A = _draw_data(cfg, rng, edges[k : k + 2])
        write_csv(prefix + ".csv", x)
        argv = [
            "--threads", "1", "tune", "--input", prefix + ".csv", "--method", "ebic",
            "--grid-size", str(cfg["grid"]), "--gamma", repr(cfg["gamma"]),
            "-o", prefix, *solver,
        ]
        return {"argv": argv, "prefix": prefix, "A": A, "grid": cfg["grid"]}
    plan = {
        "d": cfg["d"],
        "edge_prob": cfg["edge_prob"],
        "sample_sizes": ", ".join(map(str, cfg["sizes"])),
        "replications": cfg["reps"],
        "alphas": ", ".join(map(repr, cfg["alphas"])),
        "bootstrap": cfg["B"],
        "seed": int(rng.integers(0, 2**31)),
        "methods": "robsel, holm",
        "kkt_tol": repr(KKT_TOL),
    }
    with open(prefix + ".plan", "w", encoding="utf-8") as handle:
        handle.writelines(f"{key} = {value}\n" for key, value in plan.items())
    argv = [
        "--threads", str(cfg["threads"]), "experiment", "--config", prefix + ".plan",
        "-o", prefix,
    ]
    # Two methods; each writes one row per (n, replicate, alpha).
    cells = len(cfg["sizes"]) * cfg["reps"]
    return {
        "argv": argv,
        "prefix": prefix,
        "cells": cells,
        "rows": 2 * cells * len(cfg["alphas"]),
        "summary_rows": 2 * len(cfg["sizes"]) * len(cfg["alphas"]),
    }


def remove_outputs(op: dict) -> None:
    directory, stem = os.path.split(op["prefix"])
    for name in os.listdir(directory):
        if name.startswith(stem + "."):
            os.unlink(os.path.join(directory, name))


# --------------------------------------------------------------------------
# answer checks


def _read_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split(",") for line in handle][1:]


def _stdout_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def kkt_residual(K: np.ndarray, A: np.ndarray, lam: float) -> float:
    """Max-norm violation of the glasso optimality conditions with the whole
    matrix penalized: |A - W| <= lam off the support and A - W + lam * sign(K)
    = 0 on it, where W = K^-1."""
    gap = A - np.linalg.inv(K)
    active = np.abs(gap + lam * np.sign(K))
    inactive = np.maximum(np.abs(gap) - lam, 0.0)
    return float(np.where(K != 0.0, active, inactive).max())


def check(workload: str, op: dict, rc, stdout: str, stderr: str, warned: list) -> tuple:
    """(answer, problems) of one finished op. Any problem fails the op."""
    problems = []
    if rc != 0:
        return None, [f"exit code {rc}: {stderr.strip()[-300:]}"]
    problems += [f"warning: {w}" for w in warned]
    problems += [line for line in stderr.splitlines() if line.startswith("warning:")]
    try:
        if workload == "robsel-d50":
            answer = _check_robsel(op, stdout, problems)
        elif workload == "ebic-d100":
            answer = _check_ebic(op, stdout, problems)
        else:
            answer = _check_sweep(op, stdout, problems)
    except (OSError, ValueError, IndexError, KeyError, np.linalg.LinAlgError) as exc:
        return None, problems + [f"unreadable output: {type(exc).__name__}: {exc}"]
    return answer, problems


def _check_robsel(op, stdout, problems):
    fields = _stdout_fields(stdout)
    prefix = op["prefix"]
    lam = float(_read_rows(prefix + ".lambda.csv")[0][1])
    if fields.get("converged") != "true":
        problems.append(f"solve reports converged = {fields.get('converged')}")
    if not float(fields["kkt_residual"]) <= KKT_TOL:
        problems.append(f"reported kkt_residual {fields['kkt_residual']} > {KKT_TOL}")
    K = np.loadtxt(prefix + ".precision.csv", delimiter=",", skiprows=1, ndmin=2)
    # The file holds 12 significant digits; that rounding moves the residual
    # by far less than 1e-8.
    residual = kkt_residual(K, op["A"], lam)
    if not residual <= KKT_TOL + 1e-8:
        problems.append(f"recomputed kkt residual {residual:.3e} > {KKT_TOL}")
    index = {f"V{i + 1}": i for i in range(K.shape[0])}
    edges = sorted(
        sorted((index[row[0]], index[row[1]])) for row in _read_rows(prefix + ".edges.csv")
    )
    rows, cols = np.triu_indices(K.shape[0], k=1)
    support = np.abs(K[rows, cols]) > ZERO_TOL
    if edges != [[int(i), int(j)] for i, j in zip(rows[support], cols[support])]:
        problems.append("edge list differs from the support of the precision matrix")
    if int(fields["edges"]) != len(edges):
        problems.append("printed edge count differs from the edge list")
    return {
        "lambda": lam,
        "edges": edges,
        "diag": np.diag(K).tolist(),
        "edge_values": [float(K[i, j]) for i, j in edges],
    }


def _check_ebic(op, stdout, problems):
    prefix = op["prefix"]
    scores = [(float(lam), float(s)) for lam, s in _read_rows(prefix + ".scores.csv")]
    chosen = float(_read_rows(prefix + ".lambda.csv")[0][1])
    grid = [lam for lam, _ in scores]
    expected = s_max(op["A"]) * np.power(0.05, np.arange(op["grid"]) / (op["grid"] - 1))
    if len(grid) != op["grid"] or not np.allclose(grid, expected, rtol=1e-9, atol=0.0):
        problems.append("penalty grid is not s_max * 0.05**(k / (grid - 1))")
    if not all(math.isfinite(s) for _, s in scores):
        problems.append("non-finite EBIC score")
    # Ties go to the larger penalty, which comes first.
    best = min(range(len(scores)), key=lambda k: (scores[k][1], k))
    if chosen != scores[best][0] or float(_stdout_fields(stdout)["chosen_lambda"]) != chosen:
        problems.append("chosen lambda is not the EBIC minimizer")
    return {"lambda": chosen, "grid": grid, "scores": [s for _, s in scores]}


def _check_sweep(op, stdout, problems):
    prefix = op["prefix"]
    rows = _read_rows(prefix + ".replicates.csv")
    if len(rows) != op["rows"] or f"replicate_rows = {op['rows']}" not in stdout:
        problems.append(f"expected {op['rows']} replicate rows, got {len(rows)}")
    if any(row[4] == "" for row in rows):
        problems.append("a replicate cell has no result")
    lam = {(r[1], r[2], r[3]): float(r[10]) for r in rows if r[0] == "robsel" and r[10]}
    for (n, alpha, rep), value in lam.items():
        for (n2, alpha2, rep2), other in lam.items():
            if (n, rep) == (n2, rep2) and float(alpha) < float(alpha2) and value < other:
                problems.append(f"robsel lambda grows with alpha at n={n}, r={rep}")
    if len(_read_rows(prefix + ".summary.csv")) != op["summary_rows"]:
        problems.append("summary has the wrong number of cells")
    return {"rows": [row[:11] for row in rows]}


# --------------------------------------------------------------------------
# reference answers


def _field_equal(got: str, ref: str) -> bool:
    """Report fields are equal as text, or as numbers up to rounding."""
    if got == ref:
        return True
    try:
        return abs(float(got) - float(ref)) <= EXACT_RTOL * abs(float(ref))
    except ValueError:
        return False


#: Relative tolerance of each list of numbers, scaled by its largest entry.
_LIST_RTOL = {
    "grid": EXACT_RTOL,
    "scores": SCORE_RTOL,
    "diag": PRECISION_RTOL,
    "edge_values": PRECISION_RTOL,
}


def compare(answer: dict, reference: dict) -> list[str]:
    """Differences between an op's answer and its stored reference answer."""
    if set(answer) != set(reference):
        return [f"answer fields {sorted(answer)} != {sorted(reference)}"]
    out = []
    for key, ref in reference.items():
        got = answer[key]
        if key == "lambda":
            same = abs(got - ref) <= EXACT_RTOL * abs(ref)
        elif key == "edges":
            same = got == ref
        elif key == "rows":
            same = [len(row) for row in got] == [len(row) for row in ref] and all(
                _field_equal(a, b) for g, r in zip(got, ref) for a, b in zip(g, r)
            )
        else:
            scale = max(map(abs, ref), default=0.0)
            same = len(got) == len(ref) and all(
                abs(a - b) <= _LIST_RTOL[key] * scale for a, b in zip(got, ref)
            )
        if not same:
            out.append(f"{key} differs: {str(got)[:120]} vs {str(ref)[:120]}")
    return out


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def digest(answers: list) -> str:
    """Short hash of the answers of a run, continuous values at 6 digits.

    For reading only: a value near a rounding boundary can change it; the
    gate itself compares with the tolerances above."""
    text = json.dumps(_rounded(answers), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
