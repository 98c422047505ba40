"""Batch-loop orchestration: initialization, clustered budgeted selection
queues, global merge, oracle evaluation, and posterior refits.

Each adaptive batch partitions the pool into S clusters, builds a ranked
selection queue per cluster with a proportional overbudget, then merges the
queue heads globally until the batch budget is spent.  Hyperparameters are
retrained after every batch, warm-started from the previous values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .acquisition import select_batch
from .baselines import random_acquisition
from .clustering import cluster_with_merges
from .errors import EmptySelectionError, InvalidInputError
from .estimator import FailureField, failure_prob
from .gp import (GpHyperparams, PosteriorState, TrainOptions, fit_posterior,
                 train_hyperparameters)
from .pool import AugmentedInput, EmbeddingPool, EvaluationLog, FidelityConfig, write_csv

_ADAPTIVE_METHODS = ("bams", "bas")
_RANDOM_METHODS = ("mc-gp", "mcm-gp")


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
        if self.method not in _ADAPTIVE_METHODS + _RANDOM_METHODS:
            raise InvalidInputError(f"driver method must be one of "
                                    f"{_ADAPTIVE_METHODS + _RANDOM_METHODS}, got {self.method!r}")
        if self.method in ("bas", "mc-gp") and self.fidelities.n_levels != 1:
            object.__setattr__(self, "fidelities",
                               FidelityConfig(self.fidelities.costs[:1]))

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
    for inp in picks:
        log.evaluate(oracle, inp, batch_index)
    return [(inp, float("nan"), fidelities.cost(inp.level)) for inp in picks]


def _cluster_queue(state: PosteriorState, pool: EmbeddingPool, members, evaluated,
                   costs_by_level, budget: float):
    """Build one cluster's ranked queue: [(input, cluster-local deltaJ, cost)]."""
    n_levels = len(costs_by_level)
    targets = [AugmentedInput(int(i), 0) for i in members]
    candidates = [AugmentedInput(int(i), l) for i in members for l in range(n_levels)
                  if (int(i), l) not in evaluated]
    if not candidates:
        return []
    costs = np.array([costs_by_level[c.level] for c in candidates])
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
    evaluated = {(i.point_index, i.level) for i in log.inputs}
    n = pool.n_points
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
    for inp, _, _ in selected:
        log.evaluate(oracle, inp, batch_index)
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


def write_selected_batch(out_dir, batch_index: int, selected) -> None:
    """The selected_batch<k>.csv artifact: one point_index,level,deltaJ,cost
    row per (input, deltaJ, cost) of ``selected``, in selection order."""
    write_csv(os.path.join(out_dir, f"selected_batch{batch_index}.csv"),
              ("point_index", "level", "deltaJ", "cost"),
              ((inp.point_index, inp.level, dj, cost) for inp, dj, cost in selected))


@dataclass
class BatchRecord:
    index: int
    selected: list            # (AugmentedInput, deltaJ, cost); deltaJ NaN for random batches
    mean_f: float
    field: FailureField | None
    hyper: GpHyperparams | None


@dataclass
class ExperimentResult:
    """Full run log: evaluations, per-batch selections, fields, and the final state."""

    config: RunConfig
    log: EvaluationLog
    batches: list[BatchRecord]
    state: PosteriorState | None

    def batch_mean_f(self) -> list[float]:
        return [b.mean_f for b in self.batches]

    def final_field(self) -> FailureField:
        for b in reversed(self.batches):
            if b.field is not None:
                return b.field
        raise InvalidInputError("run holds no posterior snapshots")

    def save(self, out_dir) -> None:
        """Write the documented artifact layout into a directory."""
        os.makedirs(out_dir, exist_ok=True)
        self.log.write_csv(os.path.join(out_dir, "log.csv"))
        for rec in self.batches:
            k = rec.index
            write_selected_batch(out_dir, k, rec.selected)
            if rec.field is not None:
                write_csv(os.path.join(out_dir, f"scores_batch{k}.csv"),
                          ("point_index", "p_n", "h_n"),
                          zip(range(len(rec.field.p)), rec.field.p.tolist(),
                              rec.field.h.tolist()))
            if rec.hyper is not None:
                with open(os.path.join(out_dir, f"hyperparams_batch{k}.txt"), "w") as fh:
                    fh.write(rec.hyper.to_text())


def run_experiment(pool: EmbeddingPool, config: RunConfig, oracle) -> ExperimentResult:
    """Initialization batch, then adaptive or random batches with retraining."""
    fidelities = config.fidelities
    log = EvaluationLog()
    hyper = GpHyperparams.defaults(pool, fidelities.n_levels)
    records = []
    for b in range(1, config.batches + 1):
        if b == 1:
            selected = run_random_batch(pool, fidelities, config.m1, oracle, log, b,
                                        seed=[config.seed, 0])
        elif config.method in _ADAPTIVE_METHODS:
            selected = run_bams_batch(pool, state, config, oracle, log, b)
        else:
            selected = run_random_batch(pool, fidelities, config.m_b, oracle, log, b,
                                        seed=[config.seed, b])
        if len(log) >= 2:
            hyper = train_hyperparameters(pool, log, hyper, config.train)
        state = fit_posterior(pool, log, hyper, config.gamma)
        vals = log.batch_values(b)
        records.append(BatchRecord(
            index=b,
            selected=selected,
            mean_f=float(vals.mean()) if vals.size else float("nan"),
            field=failure_prob(state, pool.points),
            hyper=hyper,
        ))
    return ExperimentResult(config=config, log=log, batches=records, state=state)
