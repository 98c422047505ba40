"""The one batch loop of every oracle method, and its artifact writer.

Each adaptive batch partitions the pool into S clusters, builds a ranked
selection queue per cluster with a proportional overbudget, then merges the
queue heads globally until the batch budget is spent.  The GP methods
retrain their hyperparameters after every batch, warm-started from the
previous values; mc and ce run random and cross-entropy batches, no GP.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .acquisition import select_batch
from .baselines import (ce_picks, elite_gaussian, gaussian_pdf_scores, mc_scores,
                        random_acquisition)
from .clustering import cluster_with_merges
from .errors import InvalidInputError
from .estimator import FailureField, failure_prob
from .evaluation import ScoreVector, importance_scores
from .gp import GpHyperparams, PosteriorState, fit_posterior, train_hyperparameters
from .pool import (EmbeddingPool, EvaluationLog, FidelityConfig, make_artifact_dir,
                   open_artifact, write_csv)

_ADAPTIVE_METHODS = ("bams", "bas")
ORACLE_METHODS = _ADAPTIVE_METHODS + ("mc-gp", "mcm-gp", "mc", "ce")


@dataclass(frozen=True)
class RunConfig:
    """Experiment settings; defaults mirror the reference experimental setup."""

    gamma: float
    fidelities: FidelityConfig = field(default_factory=FidelityConfig)
    method: str = "bams"
    m1: float = 20.0
    m_b: float = 15.0
    batches: int = 3
    S: int = 6
    S_hat: int | None = None          # None resolves to 2 * S
    eta: float = 2.0
    seed: int = 0
    train_iters: int = 200            # Adam steps per training; 0 trains nothing

    def __post_init__(self):
        # NaN compares false, so these reject it too
        if not -np.inf < self.gamma < np.inf:
            raise InvalidInputError(f"gamma must be finite, got {self.gamma!r}")
        if not (0.0 < self.m1 < np.inf and 0.0 < self.m_b < np.inf):
            raise InvalidInputError(f"m1 and m_b must be positive and finite, got "
                                    f"{self.m1!r} and {self.m_b!r}")
        if self.batches < 1:
            raise InvalidInputError("batches must be >= 1")
        if not 1.0 <= self.eta < np.inf:
            raise InvalidInputError(f"eta must be >= 1 and finite, got {self.eta!r}")
        if self.seed < 0:
            raise InvalidInputError(f"run seed must be >= 0, got {self.seed}")
        if self.train_iters < 0:
            raise InvalidInputError(f"training iters must be >= 0, got {self.train_iters}")
        if self.S_hat is None:
            object.__setattr__(self, "S_hat", 2 * self.S)
        if not 1 <= self.S <= self.S_hat:
            raise InvalidInputError("need 1 <= S <= S_hat")
        if self.method not in ORACLE_METHODS:
            raise InvalidInputError(f"driver method must be one of {ORACLE_METHODS}, "
                                    f"got {self.method!r}")
        if self.method not in ("bams", "mcm-gp") and self.fidelities.n_levels != 1:
            object.__setattr__(self, "fidelities",
                               FidelityConfig(self.fidelities.costs[:1]))
        cheapest = min(self.fidelities.costs)
        if self.method in _ADAPTIVE_METHODS and self.m_b <= cheapest:
            # the merge takes a pick only while the batch cost stays below m_b
            raise InvalidInputError(
                f"m_b = {self.m_b:g} fits no {self.method} pick: the cheapest "
                f"level costs {cheapest:g}, and an adaptive batch's cost must "
                f"stay below m_b")

    def check_pool(self, n_points: int) -> None:
        """Reject an S_hat above the pool size when the run clusters the pool
        (an adaptive method with a second batch), before any oracle call."""
        if (self.method in _ADAPTIVE_METHODS and self.batches > 1
                and self.S_hat > n_points):
            raise InvalidInputError(
                f"initial_clusters S_hat = {self.S_hat} exceeds the pool "
                f"size N = {n_points}; an adaptive batch needs S <= S_hat <= N")


def _cluster_queue(state: PosteriorState, pool: EmbeddingPool, members, evaluated,
                   costs_by_level, budget: float):
    """One cluster's ranked queue as a selection with cluster-local delta_j.

    ``evaluated`` is the N x levels mask of evaluated inputs; the targets are
    the members at level 0 and the candidates every unevaluated (member,
    level) pair, point-major, as (n, 2) index arrays."""
    n_levels = len(costs_by_level)
    targets = np.column_stack([members, np.zeros_like(members)])
    points = np.repeat(members, n_levels)
    levels = np.tile(np.arange(n_levels), members.size)
    keep = ~evaluated[points, levels]
    candidates = np.column_stack([points[keep], levels[keep]])
    costs = np.asarray(costs_by_level, dtype=np.float64)[levels[keep]]
    return select_batch(state, pool, candidates, costs, targets, budget)


def run_bams_batch(pool: EmbeddingPool, state: PosteriorState, config: RunConfig,
                   log: EvaluationLog, batch_index: int):
    """One adaptive batch's picks: cluster, build queues, merge globally.

    Returns (inputs, delta_j) in merge order, delta_j scaled to the pool-wide
    objective (cluster values weighted by N_s / N).
    """
    assign = cluster_with_merges(pool, state.hyper, config.S, config.S_hat,
                                 seed=[config.seed, batch_index])
    n = pool.n_points
    evaluated = np.zeros((n, config.fidelities.n_levels), dtype=bool)
    evaluated[log.inputs[:, 0], log.inputs[:, 1]] = True
    queues = []
    for cid in range(assign.n_clusters):
        members = assign.members(cid)
        budget = float(np.ceil(config.eta * config.m_b * len(members) / n))
        inputs, delta_j, cost = _cluster_queue(state, pool, members, evaluated,
                                               config.fidelities.costs, budget)
        # scale cluster-local deltaJ (a mean over N_s targets) to the pool objective
        queues.append((inputs, delta_j * (len(members) / n), cost))

    return _merge_queues(queues, config.m_b)


def _merge_queues(queues, m_b: float):
    """Algorithm-1 global merge over per-cluster queue heads.

    Each step takes the least (deltaJ / cost, point, level) head that keeps
    the batch cost below m_b; a head that does not fit blocks its queue.
    Returns the merged (inputs, delta_j).
    """
    inputs, delta_j, cost = (np.concatenate(col) for col in zip(*queues))
    sizes = [len(q[2]) for q in queues]
    ends = np.cumsum(sizes)
    heads = ends - sizes
    rate = delta_j / cost
    taken = []
    cost_g = 0.0
    while cost_g < m_b:
        live = heads[heads < ends]
        live = live[cost_g + cost[live] < m_b]
        if not live.size:
            break
        j = live[np.lexsort((inputs[live, 1], inputs[live, 0], rate[live]))[0]]
        heads[np.searchsorted(ends, j, side="right")] += 1
        taken.append(j)
        cost_g += cost[j]
    return inputs[taken], delta_j[taken]


@dataclass
class BatchRecord:
    index: int                      # k: the batch's picks are the log rows batches == k
    delta_j: np.ndarray             # pool-scaled deltaJ per logged row; NaN unless adaptive
    field: FailureField | None      # None for mc and ce
    hyper: GpHyperparams | None     # None for mc and ce


@dataclass
class ExperimentResult:
    """Full run log: evaluations and per-batch selections, fields and
    hyperparameters; the final posterior and the ce Gaussian refit from it."""

    config: RunConfig
    pool: EmbeddingPool
    log: EvaluationLog
    batches: list[BatchRecord]

    def final_field(self) -> FailureField:
        """The last batch's failure field: a GP method snapshots one every batch."""
        last = self.batches[-1].field
        if last is None:
            raise InvalidInputError("run holds no posterior snapshots")
        return last

    def scores(self, alpha: float) -> ScoreVector:
        """Final per-point scores: the last field's importance scores for a GP
        method, mc_scores from [seed, 1] for mc, the final density for ce."""
        if self.config.method == "mc":
            return mc_scores(self.pool.n_points, seed=[self.config.seed, 1])
        if self.config.method == "ce":
            return gaussian_pdf_scores(elite_gaussian(self.pool, self.log), self.pool)
        return importance_scores(self.final_field(), alpha)

    def save(self, out_dir) -> None:
        """Write the documented artifact layout into a directory; an empty
        batch still gets its header-only selected_batch<k>.csv."""
        make_artifact_dir(out_dir)
        self.log.write_csv(os.path.join(out_dir, "log.csv"))
        costs = np.asarray(self.config.fidelities.costs)
        for rec in self.batches:
            k = rec.index
            inputs = self.log.inputs[self.log.batches == k]
            write_csv(os.path.join(out_dir, f"selected_batch{k}.csv"),
                      ("point_index", "level", "deltaJ", "cost"),
                      (inputs[:, 0], inputs[:, 1], rec.delta_j, costs[inputs[:, 1]]))
            if rec.field is not None:
                write_csv(os.path.join(out_dir, f"scores_batch{k}.csv"),
                          ("point_index", "p_n", "h_n"),
                          (np.arange(rec.field.p.size), rec.field.p, rec.field.h))
            if rec.hyper is not None:
                with open_artifact(os.path.join(out_dir, f"hyperparams_batch{k}.txt")) as fh:
                    fh.write(rec.hyper.to_text())


def run_experiment(pool: EmbeddingPool, config: RunConfig, oracle) -> ExperimentResult:
    """Run every batch of one oracle method; the one batch loop.

    Batch 1 spends m1 and each later batch m_b on the method's picks: a ce
    batch from the one stream [seed, 1], an adaptive batch (bams, bas after
    batch 1) or a random batch from the stream [seed, b] ([seed, 0] for
    batch 1).  The loop alone evaluates the picks, which logs them, and
    records their delta_j, NaN unless the batch is adaptive.  A GP method
    then retrains, refits and snapshots its failure field."""
    config.check_pool(pool.n_points)
    gp = config.method not in ("mc", "ce")
    ce_rng = np.random.default_rng([config.seed, 1])
    log = EvaluationLog()
    hyper = GpHyperparams.defaults(pool, config.fidelities.n_levels) if gp else None
    state = snapshot = None
    records = []
    for b in range(1, config.batches + 1):
        budget = config.m1 if b == 1 else config.m_b
        adaptive = b > 1 and config.method in _ADAPTIVE_METHODS
        if config.method == "ce":
            inputs = ce_picks(pool, log, budget, ce_rng)
        elif adaptive:
            inputs, delta_j = run_bams_batch(pool, state, config, log, b)
        else:
            inputs = random_acquisition(pool, config.fidelities, budget, exclude=log.inputs,
                                        seed=[config.seed, 0 if b == 1 else b])
        log.evaluate(oracle, inputs, b)
        if not adaptive:
            delta_j = np.full(len(inputs), np.nan)
        if gp:
            if len(log) >= 2:
                hyper = train_hyperparameters(pool, log, hyper, config.train_iters)
            state = fit_posterior(pool, log, hyper, config.gamma)
            snapshot = failure_prob(state, pool.points)
        records.append(BatchRecord(b, delta_j, snapshot, hyper))
    return ExperimentResult(config, pool, log, records)
