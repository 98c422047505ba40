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
from .baselines import (CeState, CrossEntropy, gaussian_pdf_scores, mc_scores,
                        random_acquisition)
from .clustering import cluster_with_merges
from .errors import EmptySelectionError, InvalidInputError
from .estimator import FailureField, failure_prob
from .evaluation import ScoreVector, importance_scores
from .gp import (GpHyperparams, PosteriorState, TrainOptions, fit_posterior,
                 train_hyperparameters)
from .pool import EmbeddingPool, EvaluationLog, FidelityConfig, write_csv

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
    S_hat: int | None = None          # defaults to 2 * S
    eta: float = 2.0
    seed: int = 0
    train: TrainOptions = field(default_factory=TrainOptions)

    def __post_init__(self):
        if self.m1 <= 0 or self.m_b <= 0:
            raise InvalidInputError("m1 and m_b must be positive")
        if self.batches < 1:
            raise InvalidInputError("batches must be >= 1")
        if self.eta < 1.0:
            raise InvalidInputError("eta must be >= 1")
        if self.S < 1 or (self.S_hat is not None and self.S_hat < self.S):
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

    @property
    def s_hat_effective(self) -> int:
        return self.S_hat if self.S_hat is not None else 2 * self.S


def run_random_batch(pool: EmbeddingPool, fidelities: FidelityConfig, budget: float,
                     oracle, log: EvaluationLog, batch_index: int, seed):
    """Evaluate uniformly random unevaluated inputs until the cost reaches budget.

    Returns the selected list [(input, NaN deltaJ, cost)] in draw order;
    the evaluations are appended to the log under batch_index.
    """
    picks = random_acquisition(pool, fidelities, budget, seed=seed, exclude=log.inputs)
    log.evaluate(oracle, picks, batch_index)
    return [(inp, float("nan"), fidelities.cost(inp.level)) for inp in picks]


def _cluster_queue(state: PosteriorState, pool: EmbeddingPool, members, evaluated,
                   costs_by_level, budget: float):
    """Build one cluster's ranked queue: [(input, cluster-local deltaJ, cost)].

    ``evaluated`` is the N x levels mask of evaluated inputs; the targets are
    the members at level 0 and the candidates every unevaluated (member,
    level) pair, point-major, as (n, 2) index arrays."""
    n_levels = len(costs_by_level)
    targets = np.column_stack([members, np.zeros_like(members)])
    points = np.repeat(members, n_levels)
    levels = np.tile(np.arange(n_levels), members.size)
    keep = ~evaluated[points, levels]
    if not keep.any():
        return []
    candidates = np.column_stack([points[keep], levels[keep]])
    costs = np.asarray(costs_by_level, dtype=np.float64)[levels[keep]]
    try:
        return select_batch(state, pool, candidates, costs, targets, budget)
    except EmptySelectionError:
        return []


def run_bams_batch(pool: EmbeddingPool, state: PosteriorState, config: RunConfig,
                   oracle, log: EvaluationLog, batch_index: int):
    """One adaptive batch: cluster, build queues, merge globally, evaluate.

    Returns the selected list [(input, deltaJ, cost)] with deltaJ scaled to
    the pool-wide objective (cluster values weighted by N_s / N), in merge
    order.  Selected inputs are evaluated and appended to the log.
    """
    assign = cluster_with_merges(pool, state.hyper, config.S,
                                 config.s_hat_effective,
                                 seed=[config.seed, batch_index])
    n = pool.n_points
    evaluated = np.zeros((n, config.fidelities.n_levels), dtype=bool)
    evaluated[log.inputs[:, 0], log.inputs[:, 1]] = True
    queues = []
    for cid in range(assign.n_clusters):
        members = assign.members(cid)
        budget = float(np.ceil(config.eta * config.m_b * len(members) / n))
        queue = _cluster_queue(state, pool, members, evaluated,
                               config.fidelities.costs, budget)
        # scale cluster-local deltaJ (a mean over N_s targets) to the pool objective
        w = len(members) / n
        queues.append([(inp, dj * w, cost) for inp, dj, cost in queue])

    selected = _merge_queues(queues, config)
    log.evaluate(oracle, [inp for inp, _, _ in selected], batch_index)
    return selected


def _merge_queues(queues, config: RunConfig):
    """Algorithm-1 global merge over per-cluster queue heads.

    A head whose cost does not fit under the remaining budget blocks its
    queue; the merge stops when the budget is spent or no head fits.
    """
    ptrs = [0] * len(queues)
    cost_g = 0.0
    out = []
    while cost_g < config.m_b:
        best = None
        for qi, queue in enumerate(queues):
            if ptrs[qi] >= len(queue):
                continue
            inp, dj, cost = queue[ptrs[qi]]
            if cost_g + cost >= config.m_b:
                continue
            key = (dj / cost, inp.point_index, inp.level)
            if best is None or key < best[0]:
                best = (key, qi)
        if best is None:
            break
        qi = best[1]
        item = queues[qi][ptrs[qi]]
        ptrs[qi] += 1
        out.append(item)
        cost_g += item[2]
    return out


@dataclass
class BatchRecord:
    index: int
    # (AugmentedInput, deltaJ, cost); deltaJ NaN for random and ce batches
    selected: list
    mean_f: float
    field: FailureField | None      # None for mc and ce
    hyper: GpHyperparams | None     # None for mc and ce


@dataclass
class ExperimentResult:
    """Full run log: evaluations, per-batch selections, fields, and the final
    state: the posterior of a GP method, the Gaussian of ce, None for mc."""

    config: RunConfig
    pool: EmbeddingPool
    log: EvaluationLog
    batches: list[BatchRecord]
    state: PosteriorState | CeState | None

    def batch_mean_f(self) -> list[float]:
        return [b.mean_f for b in self.batches]

    def final_field(self) -> FailureField:
        for b in reversed(self.batches):
            if b.field is not None:
                return b.field
        raise InvalidInputError("run holds no posterior snapshots")

    def scores(self, alpha: float) -> ScoreVector:
        """Final per-point scores: the last field's importance scores for a GP
        method, mc_scores from [seed, 1] for mc, the final density for ce."""
        if self.config.method == "mc":
            return mc_scores(self.pool.n_points, seed=[self.config.seed, 1])
        if self.config.method == "ce":
            return gaussian_pdf_scores(self.state, self.pool)
        return importance_scores(self.final_field(), alpha)

    def save(self, out_dir) -> None:
        """Write the documented artifact layout into a directory; an empty
        batch still gets its header-only selected_batch<k>.csv."""
        os.makedirs(out_dir, exist_ok=True)
        self.log.write_csv(os.path.join(out_dir, "log.csv"))
        for rec in self.batches:
            k = rec.index
            sel = rec.selected
            write_csv(os.path.join(out_dir, f"selected_batch{k}.csv"),
                      ("point_index", "level", "deltaJ", "cost"),
                      ([inp.point_index for inp, _, _ in sel], [inp.level for inp, _, _ in sel],
                       [dj for _, dj, _ in sel], [c for _, _, c in sel]))
            if rec.field is not None:
                write_csv(os.path.join(out_dir, f"scores_batch{k}.csv"),
                          ("point_index", "p_n", "h_n"),
                          (np.arange(rec.field.p.size), rec.field.p, rec.field.h))
            if rec.hyper is not None:
                with open(os.path.join(out_dir, f"hyperparams_batch{k}.txt"), "w") as fh:
                    fh.write(rec.hyper.to_text())


def run_experiment(pool: EmbeddingPool, config: RunConfig, oracle) -> ExperimentResult:
    """Run every batch of one oracle method; the one batch loop.

    Batch 1 spends m1 and each later batch m_b on the method's step: a ce
    batch, an adaptive batch (bams, bas after batch 1) or a random batch from
    the stream [seed, b] ([seed, 0] for a GP method's batch 1).  A GP method
    then retrains, refits and snapshots its failure field."""
    fidelities = config.fidelities
    gp = config.method not in ("mc", "ce")
    ce = CrossEntropy(pool, seed=[config.seed, 1]) if config.method == "ce" else None
    log = EvaluationLog()
    hyper = GpHyperparams.defaults(pool, fidelities.n_levels) if gp else None
    state = snapshot = None
    records = []
    for b in range(1, config.batches + 1):
        budget = config.m1 if b == 1 else config.m_b
        if ce is not None:
            selected = ce.run_batch(oracle, log, b, budget)
        elif b > 1 and config.method in _ADAPTIVE_METHODS:
            selected = run_bams_batch(pool, state, config, oracle, log, b)
        else:
            selected = run_random_batch(pool, fidelities, budget, oracle, log, b,
                                        seed=[config.seed, 0 if b == 1 and gp else b])
        if gp:
            if len(log) >= 2:
                hyper = train_hyperparameters(pool, log, hyper, config.train)
            state = fit_posterior(pool, log, hyper, config.gamma)
            snapshot = failure_prob(state, pool.points)
        vals = log.values[log.batches == b]
        mean_f = float(vals.mean()) if vals.size else float("nan")
        records.append(BatchRecord(b, selected, mean_f, snapshot, hyper))
    return ExperimentResult(config=config, pool=pool, log=log, batches=records,
                            state=ce.state if ce is not None else state)
