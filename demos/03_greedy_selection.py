"""Cost-normalized greedy selection: watch the acquisition J decrease as
cheap and expensive candidates compete, and verify the recursion against
the from-scratch objective."""

import numpy as np

from rare_sampler import (EmbeddingPool, EvaluationLog, GpHyperparams, PendingSet,
                          acquisition_J, fit_posterior)

rng = np.random.default_rng(7)
pool = EmbeddingPool(rng.standard_normal((120, 2)))
hyper = GpHyperparams.defaults(pool, n_levels=2)

log = EvaluationLog()
for i in rng.choice(120, 6, replace=False):
    log.append((int(i), 0), float(rng.standard_normal()), 1)
state = fit_posterior(pool, log, hyper, gamma=-0.8)

targets = [(i, 0) for i in range(120)]
candidates = [(i, l) for i in range(120) for l in range(2) if (i, l) not in log]
costs = np.array([1.0 if l == 0 else 0.15 for _, l in candidates])

pending = PendingSet(state, pool, targets, candidates, costs)
print(f"J(empty) = {pending.J():.6f}")
chosen = []
while pending.total_cost < 2.0:
    (i, l), dj = pending.select_next()
    chosen.append((i, l))
    print(f"picked point {i:3d} level {l}  "
          f"deltaJ = {dj:+.2e}  J -> {pending.J():.6f}  "
          f"cost so far {pending.total_cost:.2f}")

j_check = acquisition_J(state, pool, chosen, targets)
print(f"from-scratch J at the same pending set: {j_check:.6f} "
      f"(agrees to {abs(j_check - pending.J()):.1e})")
