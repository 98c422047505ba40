"""Importance-sampled rate estimation, discovery metrics, and the
multilevel-splitting cost bound.

The rate estimator draws K i.i.d. pool indices from the normalized score
distribution q and reweights hits by (1/N)/q(i), which keeps the estimate
unbiased for any strictly positive q.  Discovery is tracked two ways: the
fraction of distinct failures among the drawn indices, and the
deterministic coverage of failures inside the K top-scored points (the
retention-recall curve evaluated at budget K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

SCORE_FLOOR = 1e-12

RETENTION_MULTIPLES = np.arange(1, 21) * 0.5


@dataclass(frozen=True)
class ScoreVector:
    """Nonnegative per-point scores with their normalized distribution q."""

    scores: np.ndarray
    q: np.ndarray

    @staticmethod
    def from_raw(scores: np.ndarray, floor: float = SCORE_FLOOR) -> "ScoreVector":
        s = np.maximum(np.asarray(scores, dtype=np.float64), floor)
        return ScoreVector(scores=s, q=s / s.sum())


def importance_scores(field, alpha: float) -> ScoreVector:
    """Floored failure probabilities raised to alpha, then normalized."""
    if alpha < 0:
        raise InvalidInputError("alpha must be nonnegative")
    return ScoreVector.from_raw(np.maximum(field.p, SCORE_FLOOR) ** alpha, floor=0.0)


def _trial_rng(seed, trial_index: int) -> np.random.Generator:
    # documented counter scheme: stream t of root seed r is default_rng([r, t])
    return np.random.default_rng([seed, trial_index])


def _draw(q_cdf: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    return np.searchsorted(q_cdf, rng.random(K), side="right")


@dataclass(frozen=True)
class RateReport:
    """Aggregated importance-sampling trials for one method run."""

    p_hat_mean: float
    rv: float
    recall: float              # failures covered by the K top-scored points
    recall_drawn_mean: float   # mean fraction of distinct failures drawn per trial
    se_rv: float
    se_recall: float
    trials: int


def recall_at_budget(scores: ScoreVector, truth: np.ndarray, K: int) -> float:
    """Fraction of failures among the K highest-scored points (ties by index)."""
    truth = np.asarray(truth, dtype=bool)
    n_fail = int(truth.sum())
    if n_fail == 0:
        raise InvalidInputError("no failures in the truth labels")
    order = np.argsort(-scores.scores, kind="stable")
    return float(truth[order[:K]].sum()) / n_fail


def repeated_is_trials(scores: ScoreVector, truth: np.ndarray, K: int,
                       trials: int, seed) -> RateReport:
    """Run independent IS trials and summarize rate and discovery statistics.

    Relative variance is the sample variance of p_hat across trials divided
    by the squared true rate; its standard error uses the fourth-moment
    variance of the sample variance.
    """
    if K < 1:
        raise InvalidInputError(f"IS sample size K must be >= 1, got {K}")
    if trials < 2:
        raise InvalidInputError("trials must be >= 2")
    truth = np.asarray(truth, dtype=bool)
    p_gamma = float(truth.mean())
    if p_gamma == 0.0:
        raise InvalidInputError("no failures in the truth labels")
    p_hats = np.empty(trials)
    recalls = np.empty(trials)
    cdf = np.cumsum(scores.q)
    n = truth.size
    n_fail = int(truth.sum())
    for t in range(trials):
        rng = _trial_rng(seed, t)
        idx = _draw(cdf, K, rng)
        hits = truth[idx]
        p_hats[t] = np.where(hits, 1.0 / (n * scores.q[idx]), 0.0).mean()
        recalls[t] = len(set(idx[hits].tolist())) / n_fail
    var = float(p_hats.var(ddof=1))
    centered = p_hats - p_hats.mean()
    m4 = float((centered**4).mean())
    var_of_var = max(m4 - var**2 * (trials - 3) / (trials - 1), 0.0) / trials
    return RateReport(
        p_hat_mean=float(p_hats.mean()),
        rv=var / p_gamma**2,
        recall=recall_at_budget(scores, truth, K),
        recall_drawn_mean=float(recalls.mean()),
        se_rv=float(np.sqrt(var_of_var)) / p_gamma**2,
        se_recall=float(recalls.std(ddof=1)) / np.sqrt(trials),
        trials=trials,
    )


def retention_recall_curve(scores: ScoreVector, truth: np.ndarray) -> np.ndarray:
    """Recall of true failures among the top-scored points.

    Retention is measured in multiples t of the failure count p_gamma * N;
    the curve is emitted at t = 0.5, 1.0, ..., 10.0 as an array of
    (retention_multiple, recall) rows.  Ties in the scores break on the
    lower point index.
    """
    truth = np.asarray(truth, dtype=bool)
    n_fail = int(truth.sum())
    if n_fail == 0:
        raise InvalidInputError("retention-recall needs at least one failure")
    order = np.argsort(-scores.scores, kind="stable")
    hits = np.cumsum(truth[order])
    out = np.empty((RETENTION_MULTIPLES.size, 2))
    for i, t in enumerate(RETENTION_MULTIPLES):
        k = min(int(np.ceil(t * n_fail)), truth.size)
        out[i] = (t, hits[k - 1] / n_fail if k else 0.0)
    return out


@dataclass(frozen=True)
class SplittingBound:
    """Theoretical multilevel-splitting cost for a target precision.

    Exactly one of min_total_sims / rv_lower_bound is set, depending on
    whether a target relative variance or a simulation budget was given.
    """

    iterations: int
    base_samples: int
    min_total_sims: int | None = None
    rv_lower_bound: float | None = None


def splitting_bound(p_gamma: float, delta: float, target_rv: float | None = None,
                    budget: float | None = None) -> SplittingBound:
    """Invert the multilevel-splitting cost and variance relations.

    With K = floor(log p_gamma / log(1 - delta)) splitting iterations, the
    total cost is N + T*delta*N*K (T >= 1 Markov steps per iteration) and
    the relative variance is K*delta / (N*(1-delta)).  Given a target RV
    this returns the minimum N and the T=1 cost floor; given a budget it
    returns the best achievable RV.
    """
    if not 0.0 < p_gamma < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidInputError("need 0 < p_gamma < 1 and 0 < delta < 1")
    if (target_rv is None) == (budget is None):
        raise InvalidInputError("specify exactly one of target_rv or budget")
    K = int(np.floor(np.log(p_gamma) / np.log(1.0 - delta)))
    if target_rv is not None:
        if target_rv <= 0:
            raise InvalidInputError("target_rv must be positive")
        N = int(np.floor(K * delta / (target_rv * (1.0 - delta))))
        total = int(round(N * (1.0 + delta * K)))
        return SplittingBound(iterations=K, base_samples=N, min_total_sims=total)
    if budget <= 0:
        raise InvalidInputError("budget must be positive")
    N = int(np.floor(budget / (1.0 + delta * K)))
    rv = K * delta / (N * (1.0 - delta))
    return SplittingBound(iterations=K, base_samples=N, rv_lower_bound=float(rv))
