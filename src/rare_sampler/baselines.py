"""Batch picks and scores of the baselines, run by ``driver.run_experiment``.

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
from .pool import EmbeddingPool, EvaluationLog, FidelityConfig, check_budget, input_array, read_csv

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
    check_budget(budget)
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


def elite_gaussian(pool: EmbeddingPool, log: EvaluationLog) -> CeState | None:
    """The cross-entropy Gaussian of a log: the mean and the floored variance
    of the CE_ELITES lowest values among the last batch's rows, ties taken in
    evaluation order; None for an empty log."""
    if not len(log):
        return None
    last = log.batches == log.batches[-1]
    order = np.argsort(log.values[last], kind="stable")[:CE_ELITES]
    elite = pool.points[log.inputs[last, 0][order]]
    var_floor = CE_VAR_FLOOR_REL * np.maximum(pool.points.var(axis=0), 1e-30)
    return CeState(mean=elite.mean(axis=0), var=np.maximum(elite.var(axis=0), var_floor))


def ce_picks(pool: EmbeddingPool, log: EvaluationLog, budget: float,
             rng: np.random.Generator) -> np.ndarray:
    """One cross-entropy batch of ceil(budget) level-0 points, as (m, 2) index
    rows in draw order: uniform ones for an empty log, else draws from the
    log's elite Gaussian, each snapped to the nearest pool point not yet
    evaluated; fewer once every point is evaluated."""
    check_budget(budget)
    gauss, m = elite_gaussian(pool, log), math.ceil(budget)
    if gauss is None:
        picks = rng.choice(pool.n_points, size=min(m, pool.n_points), replace=False).tolist()
    else:
        draws = gauss.mean + np.sqrt(gauss.var) * rng.standard_normal((m, pool.dim))
        taken = np.isin(np.arange(pool.n_points), log.inputs[:, 0])
        picks = []
        for x in draws:
            if taken.all():
                break
            d2 = np.sum((pool.points - x) ** 2, axis=1)
            d2[taken] = np.inf
            picks.append(int(np.argmin(d2)))
            taken[picks[-1]] = True
    return np.column_stack([picks, np.zeros(len(picks))]).astype(np.intp)


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
