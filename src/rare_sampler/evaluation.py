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
# the largest alpha that keeps SCORE_FLOOR ** alpha a normal double, about 25.6
_ALPHA_MAX = float(np.log(np.finfo(np.float64).tiny) / np.log(SCORE_FLOOR))

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


def check_alpha(alpha: float) -> None:
    """Reject an importance exponent that is negative, not finite, or so large
    that the floored score SCORE_FLOOR ** alpha is no normal double: there it
    is 0 or loses its digits, so a point with p_n <= SCORE_FLOOR gets q = 0,
    and q is nan when every point has."""
    if not 0.0 <= alpha < np.inf:
        raise InvalidInputError(f"alpha must be >= 0 and finite, got {alpha!r}")
    if not SCORE_FLOOR ** alpha >= np.finfo(np.float64).tiny:
        raise InvalidInputError(
            f"alpha = {alpha:g} underflows the score floor: {SCORE_FLOOR:g} ** alpha "
            f"is below the smallest normal double, so a point with p_n <= "
            f"{SCORE_FLOOR:g} would get q = 0; alpha must be <= {_ALPHA_MAX:.3g}")


def importance_scores(field, alpha: float) -> ScoreVector:
    """Floored failure probabilities raised to alpha, then normalized."""
    check_alpha(alpha)
    return ScoreVector.from_raw(np.maximum(field.p, SCORE_FLOOR) ** alpha, floor=0.0)


@dataclass(frozen=True)
class RateReport:
    """Aggregated importance-sampling trials for one method run."""

    p_hat_mean: float
    rv: float
    recall: float              # failures covered by the K top-scored points
    recall_drawn_mean: float   # mean fraction of distinct failures drawn per trial
    se_rv: float
    se_recall: float


@dataclass(frozen=True)
class IsOptions:
    """Settings of a rate report: the importance exponent of a GP method's
    scores, the multiple of the failure count that sizes K, and the trial count."""

    alpha: float = 2.5
    k_multiple: float = 5.0    # K = k_multiple * (failure count), rounded
    trials: int = 200

    def __post_init__(self):
        check_alpha(self.alpha)
        if not 0.0 < self.k_multiple < np.inf:
            raise InvalidInputError(f"k_multiple must be positive and finite, "
                                    f"got {self.k_multiple!r}")
        if self.trials < 2:
            raise InvalidInputError(f"trials must be >= 2, got {self.trials}")

    def sample_size(self, truth) -> int:
        """The IS sample size K: k_multiple times the number of failures in
        the truth labels, rounded."""
        n_fail = int(np.count_nonzero(truth))
        K = int(round(self.k_multiple * n_fail))
        if K < 1:
            raise InvalidInputError(f"IS sample size K must be >= 1, got {K} "
                                    f"(k_multiple {self.k_multiple:g} x {n_fail} failures)")
        return K


def _ranked_hits(scores: ScoreVector, truth) -> tuple[np.ndarray, np.ndarray]:
    """The truth labels as bools and the running failure count down the
    ranking of the scores, highest first with ties on the lower index.
    Labels that do not match the scores one to one, or hold no failure,
    are an error."""
    truth = np.asarray(truth, dtype=bool)
    if truth.shape != scores.q.shape:
        raise InvalidInputError(f"truth labels have shape {truth.shape}, "
                                f"the scores {scores.q.shape}")
    if not truth.any():
        raise InvalidInputError("no failures in the truth labels")
    return truth, np.cumsum(truth[np.argsort(-scores.scores, kind="stable")])


def recall_at_budget(scores: ScoreVector, truth: np.ndarray, K: int) -> float:
    """Fraction of failures among the K highest-scored points (ties by index)."""
    if K < 1:
        raise InvalidInputError(f"budget K must be >= 1, got {K}")
    hits = _ranked_hits(scores, truth)[1]
    return float(hits[min(K, hits.size) - 1] / hits[-1])


def repeated_is_trials(scores: ScoreVector, truth: np.ndarray, K: int,
                       trials: int, seed) -> RateReport:
    """Run independent IS trials and summarize rate and discovery statistics.

    Relative variance is the sample variance of p_hat across trials divided
    by the squared true rate; its standard error uses the fourth-moment
    variance of the sample variance.  When no trial draws a failure, every
    p_hat is 0 and their spread says nothing about the sampler's error, so
    rv and se_rv are NaN.
    """
    if K < 1:
        raise InvalidInputError(f"IS sample size K must be >= 1, got {K}")
    if trials < 2:
        raise InvalidInputError("trials must be >= 2")
    truth, ranked = _ranked_hits(scores, truth)
    p_gamma = float(truth.mean())
    p_hats = np.empty(trials)
    recalls = np.empty(trials)
    cdf = np.cumsum(scores.q)
    n = truth.size
    n_fail = int(ranked[-1])
    for t in range(trials):
        # documented counter scheme: stream t of root seed r is default_rng([r, t])
        idx = np.searchsorted(cdf, np.random.default_rng([seed, t]).random(K), side="right")
        hits = truth[idx]
        p_hats[t] = np.where(hits, 1.0 / (n * scores.q[idx]), 0.0).mean()
        recalls[t] = len(set(idx[hits].tolist())) / n_fail
    var = float(p_hats.var(ddof=1))
    centered = p_hats - p_hats.mean()
    m4 = float((centered**4).mean())
    var_of_var = max(m4 - var**2 * (trials - 3) / (trials - 1), 0.0) / trials
    drew_failure = bool(p_hats.any())
    return RateReport(
        p_hat_mean=float(p_hats.mean()),
        rv=var / p_gamma**2 if drew_failure else float("nan"),
        recall=float(ranked[min(K, n) - 1] / n_fail),
        recall_drawn_mean=float(recalls.mean()),
        se_rv=float(np.sqrt(var_of_var)) / p_gamma**2 if drew_failure else float("nan"),
        se_recall=float(recalls.std(ddof=1)) / np.sqrt(trials),
    )


def retention_recall_curve(scores: ScoreVector, truth: np.ndarray) -> np.ndarray:
    """Recall of true failures among the top-scored points.

    Retention is measured in multiples t of the failure count p_gamma * N;
    the curve is emitted at t = 0.5, 1.0, ..., 10.0 as an array of
    (retention_multiple, recall) rows.  Ties in the scores break on the
    lower point index.
    """
    hits = _ranked_hits(scores, truth)[1]
    k = np.minimum(np.ceil(RETENTION_MULTIPLES * hits[-1]).astype(np.intp), hits.size)
    return np.column_stack([RETENTION_MULTIPLES, hits[k - 1] / hits[-1]])


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
    if K < 1:
        raise InvalidInputError(f"p_gamma {p_gamma!r} and delta {delta!r} give no splitting "
                                f"iteration: K = floor(log p_gamma / log(1 - delta)) = {K}; "
                                f"the bound needs p_gamma <= 1 - delta")
    if target_rv is not None:
        if not 0.0 < target_rv < np.inf:
            raise InvalidInputError(f"target_rv must be positive and finite, got {target_rv!r}")
        N = int(np.floor(K * delta / (target_rv * (1.0 - delta))))
        total = int(round(N * (1.0 + delta * K)))
        return SplittingBound(iterations=K, base_samples=N, min_total_sims=total)
    if not 0.0 < budget < np.inf:
        raise InvalidInputError(f"budget must be positive and finite, got {budget!r}")
    base_cost = 1.0 + delta * K
    N = int(np.floor(budget / base_cost))
    if N < 1:
        raise InvalidInputError(f"budget {budget!r} buys no base sample: one costs "
                                f"1 + delta K = {base_cost:.6g} (K = {K} iterations)")
    rv = K * delta / (N * (1.0 - delta))
    return SplittingBound(iterations=K, base_samples=N, rv_lower_bound=float(rv))
