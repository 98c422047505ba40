"""Non-adaptive and cross-entropy baselines sharing the driver plumbing.

The Monte Carlo baseline sorts and samples by seeded random scores; the
GP baselines replace the acquisition step with uniform random selection;
the cross-entropy method fits a diagonal Gaussian to the lowest-metric
elites of each batch and scores the pool by its final density.  A hook for
externally supplied per-point scores covers protocols whose scoring model
is not reproducible here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .evaluation import ScoreVector
from .pool import AugmentedInput, EmbeddingPool, EvaluationLog, FidelityConfig

CE_ELITES = 5
CE_VAR_FLOOR_REL = 1e-6


def random_acquisition(pool: EmbeddingPool, fidelities: FidelityConfig,
                       budget: float, seed, exclude=()) -> list[AugmentedInput]:
    """Uniformly random distinct augmented inputs until the cost reaches budget.

    Runs over all (point, level) pairs not in ``exclude``; an exhausted pool
    returns the partial selection.
    """
    if budget <= 0:
        raise InvalidInputError("budget must be positive")
    rng = np.random.default_rng(seed)
    excluded = {AugmentedInput(int(i), int(l)) for i, l in exclude}
    n_all = pool.n_points * fidelities.n_levels
    order = rng.permutation(n_all)
    out: list[AugmentedInput] = []
    total = 0.0
    for flat in order:
        inp = AugmentedInput(int(flat % pool.n_points), int(flat // pool.n_points))
        if inp in excluded:
            continue
        out.append(inp)
        total += fidelities.cost(inp.level)
        if total >= budget:
            break
    return out


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
    elites: int = CE_ELITES


def _fit_elite_gaussian(points: np.ndarray, values: np.ndarray, n_elite: int,
                        var_floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")[:n_elite]
    elite = points[order]
    return elite.mean(axis=0), np.maximum(elite.var(axis=0), var_floor)


def run_cross_entropy(pool: EmbeddingPool, oracle, batches: int, m1: int, m_b: int,
                      seed, elites: int = CE_ELITES):
    """Cross-entropy search snapped to the pool.

    Batch 1 evaluates m1 uniformly random points; each later batch draws
    m_b Gaussian samples, snaps them to the nearest unevaluated pool point,
    evaluates at level 0, and refits the Gaussian to the batch's lowest
    values.  Returns (CeState, density ScoreVector, EvaluationLog).
    """
    if batches < 1 or m1 < 1 or m_b < 1:
        raise InvalidInputError("batches, m1 and m_b must be positive")
    rng = np.random.default_rng(seed)
    var_floor = CE_VAR_FLOOR_REL * np.maximum(pool.points.var(axis=0), 1e-30)
    log = EvaluationLog()

    first = rng.choice(pool.n_points, size=min(m1, pool.n_points), replace=False)
    for i in first:
        log.evaluate(oracle, AugmentedInput(int(i), 0), 1)
    pts = pool.points[first]
    vals = log.value_array
    mean, var = _fit_elite_gaussian(pts, vals, elites, var_floor)
    state = CeState(mean=mean, var=var, elites=elites)

    evaluated = {int(i) for i in first}
    for b in range(2, batches + 1):
        draws = state.mean + np.sqrt(state.var) * rng.standard_normal((m_b, pool.dim))
        batch_idx: list[int] = []
        for x in draws:
            d2 = np.sum((pool.points - x) ** 2, axis=1)
            d2[list(evaluated | set(batch_idx))] = np.inf
            if np.isinf(d2).all():
                break
            batch_idx.append(int(np.argmin(d2)))
        if not batch_idx:
            break
        batch_vals = [log.evaluate(oracle, AugmentedInput(i, 0), b) for i in batch_idx]
        evaluated.update(batch_idx)
        mean, var = _fit_elite_gaussian(pool.points[batch_idx],
                                        np.asarray(batch_vals), elites, var_floor)
        state = CeState(mean=mean, var=var, elites=elites)
    return state, gaussian_pdf_scores(state, pool), log


def gaussian_pdf_scores(state: CeState, pool: EmbeddingPool) -> ScoreVector:
    """Diagonal-Gaussian density at each pool point, floored and normalized."""
    if np.any(state.var <= 0):
        raise InvalidInputError("CE state variances must be positive")
    z = (pool.points - state.mean) / np.sqrt(state.var)
    logpdf = -0.5 * np.sum(z * z, axis=1) - 0.5 * np.sum(np.log(2.0 * np.pi * state.var))
    rel = np.exp(logpdf - logpdf.max())
    return ScoreVector.from_raw(np.maximum(rel, 1e-300), floor=0.0)


def scores_from_csv(path, n_points: int) -> ScoreVector:
    """External per-point scores: CSV rows of (point_index, score)."""
    scores = np.full(n_points, np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].strip().lower() in ("point_index", "index", ""):
                continue
            idx = int(row[0])
            if not 0 <= idx < n_points:
                raise InvalidInputError(f"score row index {idx} out of range")
            scores[idx] = float(row[1])
    if np.isnan(scores).any():
        missing = int(np.isnan(scores).sum())
        raise InvalidInputError(f"score file is missing {missing} point rows")
    if scores.min() < 0:
        raise InvalidInputError("scores must be nonnegative")
    return ScoreVector.from_raw(scores)
