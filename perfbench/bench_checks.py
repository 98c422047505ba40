"""Output checks computed apart from the program.

Everything here is recomputed with numpy from the experiment seed and the
documented formulas and artifact layout; nothing imports rare_sampler.  A
check returns a list of problems, empty when the artifacts are correct.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from bench_workloads import (ALPHA, CENTER, GAMMA, K_MULTIPLE, NOISE_STD, TRIALS,
                             Workload)

SCORE_FLOOR = 1e-12     # documented floor on p before raising to alpha
P_HAT_SIGMAS = 5.0      # p_hat_mean must lie within this many standard errors
RV_SIGMAS = 6.0         # sample variance vs exact IS variance, in its own SEs


def synthetic_truth(w: Workload, seed: int):
    """Level-0 metric and failure labels of the seeded pool (diamond formula)."""
    pts = np.random.default_rng(seed).standard_normal((w.n, 2))
    f0 = np.abs(np.abs(pts[:, 0]) - CENTER) + np.abs(pts[:, 1] - CENTER)
    return f0, f0 <= GAMMA


def level1_value(f0_i: float, noise_seed: int, point_index: int) -> float:
    """Level-1 value: level 0 plus the documented per-point noise stream."""
    noise = np.random.default_rng([noise_seed, point_index]).standard_normal()
    return float(f0_i + NOISE_STD * noise)


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def read_log(out_dir):
    header, rows = _rows(os.path.join(out_dir, "log.csv"))
    if header != ["point_index", "level", "f", "batch"]:
        raise ValueError(f"log.csv header {header}")
    return [(int(r[0]), int(r[1]), float(r[2]), int(r[3])) for r in rows]


def read_snapshot(out_dir, batch):
    header, rows = _rows(os.path.join(out_dir, f"scores_batch{batch}.csv"))
    if header != ["point_index", "p_n", "h_n"]:
        raise ValueError(f"scores_batch{batch}.csv header {header}")
    arr = np.array(rows, dtype=np.float64).reshape(-1, 3)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def read_rate_report(out_dir):
    header, rows = _rows(os.path.join(out_dir, "rate_report.csv"))
    if len(rows) != 1:
        raise ValueError(f"rate_report.csv has {len(rows)} data rows")
    row = dict(zip(header, rows[0]))
    return {k: (v if k == "method" else float(v)) for k, v in row.items()}


def exact_is_moments(p_final, truth, K):
    """Exact per-trial variance and fourth central moment of the IS estimate.

    One draw picks index i with probability q_i and returns
    y_i = truth_i / (N q_i); the trial estimate averages K draws.
    """
    n = truth.size
    s = np.maximum(p_final, SCORE_FLOOR) ** ALPHA
    q = s / s.sum()
    p = truth.mean()
    y = np.where(truth, 1.0 / (n * q), 0.0)
    d = y - p
    m2 = float(np.sum(q * d * d))                  # = sum_fail 1/(N^2 q) - p^2
    m4 = float(np.sum(q * d ** 4))
    var = m2 / K
    mu4 = m4 / K**3 + 3.0 * (K - 1) * m2**2 / K**3
    return var, mu4, s


def check_experiment(out_dir, w: Workload, seed: int) -> list[str]:
    """Check one experiment's artifacts against independent recomputation."""
    problems: list[str] = []
    try:
        _check(out_dir, w, seed, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable artifact: {exc!r}")
    return [f"{w.name} seed {seed}: {p}" for p in problems]


def _check(out_dir, w: Workload, seed: int, problems: list[str]) -> None:
    f0, truth = synthetic_truth(w, seed)
    costs = w.costs

    # log.csv: every value recomputed, no augmented input twice
    log = read_log(out_dir)
    seen = set()
    for i, lvl, f, b in log:
        if (i, lvl) in seen:
            problems.append(f"input ({i}, {lvl}) evaluated twice")
        seen.add((i, lvl))
        if not (0 <= i < w.n and 0 <= lvl < w.levels and 1 <= b <= w.batches):
            problems.append(f"log row out of range: {(i, lvl, b)}")
            continue
        want = float(f0[i]) if lvl == 0 else level1_value(f0[i], seed, i)
        if f != want:
            problems.append(f"log value at ({i}, {lvl}) is {f!r}, expected {want!r}")

    # selected_batch<k>.csv: matches the log, budget and deltaJ properties
    for k in range(1, w.batches + 1):
        header, rows = _rows(os.path.join(out_dir, f"selected_batch{k}.csv"))
        if header != ["point_index", "level", "deltaJ", "cost"]:
            problems.append(f"selected_batch{k}.csv header {header}")
            continue
        sel = [(int(r[0]), int(r[1])) for r in rows]
        if sel != [(i, lvl) for i, lvl, _, b in log if b == k]:
            problems.append(f"selected_batch{k} differs from the log's batch {k}")
        cost = [float(r[3]) for r in rows]
        if any(c != costs[lvl] for c, (_, lvl) in zip(cost, sel)):
            problems.append(f"selected_batch{k} cost does not match its level")
        dj = np.array([float(r[2]) for r in rows])
        # left-to-right sums, as the budget loops accumulate
        total = sum(cost)
        budget = w.m1 if k == 1 else w.m_b
        if k > 1 and w.adaptive:
            if not total < w.m_b:
                problems.append(f"adaptive batch {k} costs {total} >= m_b {w.m_b}")
            if not np.all(dj <= 0.0):
                problems.append(f"batch {k} has deltaJ > 0 or NaN: {dj.max()}")
        elif sel and not (sum(cost[:-1]) < budget <= total):
            problems.append(f"random batch {k} costs {total}, budget {budget}")

        # scores_batch<k>.csv: a probability field with h = p(1 - p)
        idx, p, h = read_snapshot(out_dir, k)
        if idx.size != w.n or not np.array_equal(idx, np.arange(w.n)):
            problems.append(f"scores_batch{k} does not list the {w.n} pool points")
        elif not (np.all(p >= 0.0) and np.all(p <= 1.0)):
            problems.append(f"scores_batch{k} has p outside [0, 1]")
        elif not np.array_equal(h, p * (1.0 - p)):
            problems.append(f"scores_batch{k} has h != p(1 - p)")
        if not os.path.exists(os.path.join(out_dir, f"hyperparams_batch{k}.txt")):
            problems.append(f"hyperparams_batch{k}.txt missing")
    if problems:
        return

    # rate_report.csv against the exact IS moments of the final snapshot
    _, p_final, _ = read_snapshot(out_dir, w.batches)
    rep = read_rate_report(out_dir)
    n_fail = int(truth.sum())
    K = int(round(K_MULTIPLE * n_fail))
    p_true = n_fail / w.n
    var, mu4, scores = exact_is_moments(p_final, truth, K)
    se_mean = math.sqrt(var / TRIALS)
    if rep["method"] != w.method:
        problems.append(f"rate_report method {rep['method']!r}")
    if abs(rep["p_hat_mean"] - p_true) > P_HAT_SIGMAS * se_mean:
        problems.append(f"p_hat_mean {rep['p_hat_mean']} vs true rate {p_true} "
                        f"(SE {se_mean:.3g})")
    sample_var = rep["rv"] * p_true**2
    se_var = math.sqrt(max(mu4 - var**2 * (TRIALS - 3) / (TRIALS - 1), 0.0) / TRIALS)
    if abs(sample_var - var) > RV_SIGMAS * se_var:
        problems.append(f"rv {rep['rv']} vs exact {var / p_true**2} "
                        f"(SE {se_var / p_true**2:.3g})")

    # recall: failures recounted among the K top scores, ties to the lower index
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(truth[order])
    recall = hits[K - 1] / n_fail
    if abs(rep["recall"] - recall) > 1e-12:
        problems.append(f"recall {rep['recall']} vs recount {recall}")
    header, rows = _rows(os.path.join(out_dir, "retention_recall.csv"))
    for t, r in ((float(a), float(b)) for a, b in rows):
        k_t = min(math.ceil(t * n_fail), w.n)
        if abs(r - hits[k_t - 1] / n_fail) > 1e-12:
            problems.append(f"retention recall at {t} is {r}, recount "
                            f"{hits[k_t - 1] / n_fail}")


def quality(out_dir, w: Workload, seed: int) -> dict:
    """Quality figures of one checked experiment, read from its artifacts."""
    _, truth = synthetic_truth(w, seed)
    rep = read_rate_report(out_dir)
    _, p, _ = read_snapshot(out_dir, w.batches)
    log = read_log(out_dir)
    return {
        "rv_x100": 100.0 * rep["rv"],
        "recall": rep["recall"],
        "final_J": float(np.mean(p * (1.0 - p))),
        "evals": len(log),
        "failures_found": len({i for i, _, _, _ in log if truth[i]}),
    }
