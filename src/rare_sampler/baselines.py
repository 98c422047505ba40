"""Batch steps and scores of the baselines, run by ``driver.run_experiment``.

The Monte Carlo baseline sorts and samples by seeded random scores; it and
the GP baselines acquire by uniform random selection; the cross-entropy
method fits a diagonal Gaussian to the lowest-metric elites of each batch
and scores the pool by its final density.  A hook for externally supplied
per-point scores covers protocols whose scoring model is not reproducible
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .evaluation import ScoreVector
from .pool import EmbeddingPool, EvaluationLog, FidelityConfig, input_array, read_csv

CE_ELITES = 5
CE_VAR_FLOOR_REL = 1e-6


def random_acquisition(pool: EmbeddingPool, fidelities: FidelityConfig,
                       budget: float, seed, exclude=()) -> np.ndarray:
    """Uniformly random distinct augmented inputs, as (m, 2) index rows in draw
    order, until the cost reaches budget.

    Runs over all (point, level) pairs not in ``exclude`` (pairs or an
    (n, 2) array) in one seeded permutation; an exhausted pool returns the
    partial selection.
    """
    if not 0.0 < budget < np.inf:
        raise InvalidInputError(f"budget must be positive and finite, got {budget!r}")
    rng = np.random.default_rng(seed)
    excluded = input_array(pool, exclude)
    n = pool.n_points
    order = rng.permutation(n * fidelities.n_levels)
    order = order[~np.isin(order, excluded[:, 1] * n + excluded[:, 0])]
    costs = np.asarray(fidelities.costs)[order // n]
    order = order[:np.searchsorted(np.cumsum(costs), budget) + 1]
    return np.column_stack([order % n, order // n]).astype(np.intp, copy=False)


def mc_scores(n: int, seed) -> ScoreVector:
    """Seeded random scores: a random ranking and a heavy-tailed sampler.

    Sorting by these scores is a uniform random permutation, and sampling
    proportionally to them is the Monte Carlo baseline's importance sampler.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return ScoreVector.from_raw(rng.random(n))


@dataclass
class CeState:
    """Diagonal-Gaussian sampling distribution of the cross-entropy method."""

    mean: np.ndarray
    var: np.ndarray


def _fit_elite_gaussian(points: np.ndarray, values: np.ndarray, n_elite: int,
                        var_floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")[:n_elite]
    elite = points[order]
    return elite.mean(axis=0), np.maximum(elite.var(axis=0), var_floor)


class CrossEntropy:
    """Cross-entropy search snapped to the pool, one batch per call.

    One generator drives every batch of ceil(budget) level-0 points: first
    uniform ones, then Gaussian draws snapped to the nearest unevaluated
    pool point.  Each batch refits the Gaussian to its lowest values.
    """

    def __init__(self, pool: EmbeddingPool, seed):
        self.pool = pool
        self.rng = np.random.default_rng(seed)
        self.var_floor = CE_VAR_FLOOR_REL * np.maximum(pool.points.var(axis=0), 1e-30)
        self.state: CeState | None = None

    def run_batch(self, oracle, log: EvaluationLog, batch_index: int, budget: float):
        """Evaluate one batch into the log; returns the selection of level-0
        rows, NaN delta_j and cost 1, empty once every pool point is evaluated."""
        pool, state, m = self.pool, self.state, math.ceil(budget)
        if state is None:
            picks = self.rng.choice(pool.n_points, size=min(m, pool.n_points),
                                    replace=False).tolist()
        else:
            draws = state.mean + np.sqrt(state.var) * self.rng.standard_normal((m, pool.dim))
            taken = np.isin(np.arange(pool.n_points), log.inputs[:, 0])
            picks = []
            for x in draws:
                if taken.all():
                    break
                d2 = np.sum((pool.points - x) ** 2, axis=1)
                d2[taken] = np.inf
                picks.append(int(np.argmin(d2)))
                taken[picks[-1]] = True
        rows = np.column_stack([picks, np.zeros(len(picks))]).astype(np.intp)
        if len(picks):
            values = log.evaluate(oracle, rows, batch_index)
            mean, var = _fit_elite_gaussian(pool.points[picks], values, CE_ELITES,
                                            self.var_floor)
            self.state = CeState(mean=mean, var=var)
        return rows, np.full(len(rows), np.nan), np.ones(len(rows))


def gaussian_pdf_scores(state: CeState, pool: EmbeddingPool) -> ScoreVector:
    """Diagonal-Gaussian density at each pool point, floored and normalized."""
    if np.any(state.var <= 0):
        raise InvalidInputError("CE state variances must be positive")
    z = (pool.points - state.mean) / np.sqrt(state.var)
    logpdf = -0.5 * np.sum(z * z, axis=1) - 0.5 * np.sum(np.log(2.0 * np.pi * state.var))
    rel = np.exp(logpdf - logpdf.max())
    return ScoreVector.from_raw(np.maximum(rel, 1e-300), floor=0.0)


def scores_from_csv(path, n_points: int) -> ScoreVector:
    """External per-point scores: one point_index,score row per pool point."""
    table = read_csv(path)
    scores = np.full(n_points, np.nan)
    for line, i, s in zip(table.lines, table.column("point_index", integer=True),
                          table.column("score")):
        if not 0 <= i < n_points:
            raise InvalidInputError(f"{path} line {line}: point_index {i} out of range")
        if not np.isnan(scores[i]):
            raise InvalidInputError(f"{path} line {line}: repeated point_index {i}")
        if s < 0:
            raise InvalidInputError(f"{path} line {line}: negative score {s!r}")
        scores[i] = s
    if len(table.rows) < n_points:
        raise InvalidInputError(f"{path}: no row for point_index {np.isnan(scores).argmax()}")
    return ScoreVector.from_raw(scores)
