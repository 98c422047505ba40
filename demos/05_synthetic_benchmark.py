"""End-to-end run on a desk-scale slice of the synthetic benchmark: the
two-diamond metric, adaptive multifidelity batches, and the
importance-sampled rate report.

A full-scale (N=20000) paper-claim reproduction is not built yet (ROADMAP
item 4); this demo uses N=4000 to finish in a few seconds.
"""

import numpy as np

from rare_sampler import (FidelityConfig, IsOptions, RunConfig, SyntheticOracle,
                          SyntheticSpec, generate_pool, ground_truth_labels,
                          importance_scores, recall_at_budget, repeated_is_trials,
                          retention_recall_curve, run_experiment)

spec = SyntheticSpec(n_points=4000, seed=0)
pool = generate_pool(spec)
truth = ground_truth_labels(pool, spec)
oracle = SyntheticOracle(pool, spec, noise_seed=0)
print(f"pool: N={pool.n_points}, failures={int(truth.sum())} "
      f"(rate {truth.mean():.4f})")

config = RunConfig(
    gamma=spec.gamma,
    fidelities=FidelityConfig((1.0, 0.10)),
    method="bams",
    m1=10, m_b=5, batches=3, S=4, eta=1.0,
    seed=0,
)
result = run_experiment(pool, config, oracle)
log = result.log  # batch k's evaluations are its rows log.batches == k
levels = log.inputs[:, 1]
print(f"evaluations: {np.sum(levels == 0)} at level 0, {np.sum(levels == 1)} at level 1 "
      f"(total cost {np.asarray(config.fidelities.costs)[levels].sum():.1f})")
print("batch mean f:", [round(float(log.values[log.batches == k].mean()), 3)
                        for k in range(1, config.batches + 1)])

# the rate report as `run` sizes it: K = round(k_multiple x failures)
is_opts = IsOptions()
scores = importance_scores(result.final_field(), is_opts.alpha)
K = is_opts.sample_size(truth)
report = repeated_is_trials(scores, truth, K, is_opts.trials, seed=1)
print(f"rate estimate: {report.p_hat_mean:.5f} (true {truth.mean():.5f})")
print(f"100 x relative variance: {100 * report.rv:.3f}")
print(f"recall at budget K={K}: {report.recall:.3f} "
      f"(drawn per trial: {report.recall_drawn_mean:.3f})")

curve = retention_recall_curve(scores, truth)
marks = {1.0, 2.0, 5.0}
print("retention-recall:", {float(t): round(float(r), 3) for t, r in curve if t in marks})
assert report.recall == recall_at_budget(scores, truth, K)
