"""Fit the multifidelity GP on a handful of observations and inspect the
posterior: exact interpolation at noiseless points, widening uncertainty
away from data, and the learned noise of a cheap fidelity level."""

import numpy as np

from rare_sampler import (EmbeddingPool, EvaluationLog, GpHyperparams, fit_posterior,
                          posterior_mean_var, train_hyperparameters)

rng = np.random.default_rng(0)
pool = EmbeddingPool(rng.uniform(-3, 3, size=(200, 1)))


def f(x):
    return np.sin(1.7 * x) + 0.3 * x


log = EvaluationLog()
for i in rng.choice(200, 12, replace=False):
    x = pool.points[i, 0]
    log.append((int(i), 0), float(f(x)), batch_index=1)
for i in rng.choice(200, 25, replace=False):
    inp = (int(i), 1)
    if inp not in log:
        x = pool.points[i, 0]
        log.append(inp, float(f(x) + 0.15 * rng.standard_normal()), batch_index=1)

hyper = train_hyperparameters(pool, log, GpHyperparams.defaults(pool, n_levels=2),
                              iters=150)
state = fit_posterior(pool, log, hyper, gamma=0.0)

print("trained hyperparameters:")
print(hyper.to_text())

mu, var = posterior_mean_var(state, pool.points, np.zeros(200, dtype=int))
err = np.abs(mu - f(pool.points[:, 0]))
print(f"mean abs error over the pool: {err.mean():.4f}")

ev = log.inputs[log.inputs[:, 1] == 0, 0]
print(f"abs error at the {len(ev)} exact observations: {err[ev].max():.2e}")
print(f"posterior sd range: [{np.sqrt(var).min():.4f}, {np.sqrt(var).max():.4f}]")
