"""Failure probabilities, the exact estimator variance, and its cheap upper
bound, on a pool small enough for the O(N^2) bivariate-normal sum."""

import numpy as np

from rare_sampler import (EmbeddingPool, EvaluationLog, GpHyperparams,
                          bivariate_normal_cdf, estimator_variance_exact, failure_prob,
                          fit_posterior, variance_upper_bound)

rng = np.random.default_rng(3)
pool = EmbeddingPool(rng.standard_normal((40, 2)))
hyper = GpHyperparams.defaults(pool)

log = EvaluationLog()
for i in rng.choice(40, 10, replace=False):
    value = float(np.linalg.norm(pool.points[i] - [1.5, 1.5]))
    log.append((int(i), 0), value, 1)

state = fit_posterior(pool, log, hyper, gamma=0.8)
field = failure_prob(state, pool.points)

print(f"failure probabilities: min={field.p.min():.4f} max={field.p.max():.4f}")
print(f"expected failures in the pool: {field.p.sum():.2f}")

exact = estimator_variance_exact(state, pool)
bound = variance_upper_bound(field)
print(f"exact estimator variance: {exact:.6f}")
print(f"average point variance (upper bound): {bound:.6f}")
assert exact <= bound + 1e-12

# the bivariate normal CDF behind the pairwise terms
print("Phi2(0, 0, 0.5) =", bivariate_normal_cdf(0.0, 0.0, 0.5),
      " (closed form 1/4 + asin(0.5)/2pi =", 0.25 + np.arcsin(0.5) / (2 * np.pi), ")")
