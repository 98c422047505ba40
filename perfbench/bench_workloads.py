"""Workload definitions: one `rare-sampler run` config per experiment seed.

Every workload runs the synthetic two-diamond pool with the in-process
synthetic oracle.  An experiment seed s sets the pool seed, the run seed
and the level-1 noise seed to s, so one seed fixes the whole experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# synthetic defaults documented in the README config schema
CENTER = 1.95
GAMMA = 0.56
NOISE_STD = 0.1
LEVEL1_COST = 0.10
ALPHA = 2.5
K_MULTIPLE = 5
TRIALS = 200
TRAIN_ITERS = 200

# quality metrics are averaged over this fixed panel of experiment seeds, so
# they repeat exactly from run to run and can be compared across commits
PANEL = (0, 1, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    n: int
    levels: int
    clusters: int
    initial_clusters: int
    eta: float
    m1: float
    m_b: float
    batches: int
    train_iters: int = TRAIN_ITERS

    @property
    def adaptive(self) -> bool:
        return self.method in ("bams", "bas")

    @property
    def costs(self) -> tuple[float, ...]:
        return (1.0, LEVEL1_COST)[:self.levels]

    def config_text(self, seed: int) -> str:
        cost_line = f"cost.1 = {LEVEL1_COST}\n" if self.levels == 2 else ""
        return (
            f"[pool]\nsource = synthetic\nn = {self.n}\nseed = {seed}\n"
            f"center = {CENTER}\n"
            f"[fidelity]\nlevels = {self.levels}\n{cost_line}"
            f"synthetic_noise_std = {NOISE_STD}\n"
            f"[method]\nname = {self.method}\ngamma = {GAMMA}\n"
            f"clusters = {self.clusters}\ninitial_clusters = {self.initial_clusters}\n"
            f"eta = {self.eta}\ntrain_iters = {self.train_iters}\n"
            f"[budget]\nm1 = {self.m1}\nm_b = {self.m_b}\nbatches = {self.batches}\n"
            f"[is]\nalpha = {ALPHA}\nk_multiple = {K_MULTIPLE}\ntrials = {TRIALS}\n"
            f"[seeds]\nrun = {seed}\ntrials = {seed + 1}\n"
            f"[oracle]\nkind = synthetic\nnoise_seed = {seed}\n"
        )


WORKLOADS = {
    # README quick start (bams, 2 levels, cost.1 = 0.10, m1=20, m_b=15,
    # 3 batches, S=6) at reduced N: cheap level-1 picks fill each cluster
    # queue with tens of pending inputs, so selection at large k dominates
    "bams-mf": Workload("bams-mf", "bams", n=3000, levels=2, clusters=6,
                        initial_clusters=12, eta=2.0, m1=20, m_b=15, batches=3),
    # single-fidelity bas with few, large clusters: each queue holds at most
    # five picks over ~2000 targets and candidates, so PendingSet set-up,
    # clustering and small-k selection take the time
    "bas-full-pool": Workload("bas-full-pool", "bas", n=4000, levels=1, clusters=2,
                              initial_clusters=4, eta=2.0, m1=20, m_b=5, batches=3),
    # multifidelity random acquisition with more and larger batches: no
    # selection or clustering, hyperparameter training on ~200 observations
    # takes the time, and the failure field and snapshots cover a full pool
    "mcm-gp-train": Workload("mcm-gp-train", "mcm-gp", n=20000, levels=2, clusters=6,
                             initial_clusters=12, eta=2.0, m1=20, m_b=30, batches=4),
}


def smoke(w: Workload) -> Workload:
    """Tiny-N variant for the benchmark's own tests: same layers, seconds to run."""
    return replace(w, n=800, m_b=min(w.m_b, 8), train_iters=20)
