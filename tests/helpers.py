"""Shared fixtures and independent reference implementations used as oracles."""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from rare_sampler import (AugmentedInput, CeState, ClusterAssignment, EmbeddingPool,
                          EvaluationLog, FidelityConfig, GpHyperparams, InvalidInputError,
                          acquisition_J, fit_posterior, gaussian_pdf_scores, kmeans, mc_scores,
                          run_random_batch, scale_points)
from rare_sampler.acquisition import point_variance_beta
from rare_sampler.baselines import CE_ELITES, CE_VAR_FLOOR_REL, _fit_elite_gaussian
from rare_sampler.clustering import _relabel
from rare_sampler.estimator import SIGMA_FLOOR
from rare_sampler.gp import SQRT5, mf_kernel_matrix, noise_variances
from rare_sampler.pool import gather_points


def std_normal_cdf(z):
    """Standard normal CDF; accepts scalars or arrays, including +-inf."""
    return ndtr(z)


def matern25_kernel(x, x2, hyper: GpHyperparams) -> float:
    """Base Matern-5/2 kernel between two single points."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    if x.shape != x2.shape or x.size != hyper.dim:
        raise InvalidInputError(
            f"dimension mismatch: {x.shape} vs {x2.shape} with {hyper.dim} lengthscales"
        )
    # direct differences: exact at zero distance, unlike the expanded form
    r = np.sqrt(np.sum(((x - x2) / hyper.lengthscales) ** 2))
    sr = SQRT5 * r
    return float(hyper.signal_var * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr))


def multifidelity_kernel(a, b, pool: EmbeddingPool, hyper: GpHyperparams) -> float:
    """Augmented-input kernel, including white noise iff the inputs coincide."""
    pa, la = gather_points(pool, [a])
    pb, lb = gather_points(pool, [b])
    if la[0] >= hyper.n_levels or lb[0] >= hyper.n_levels:
        raise InvalidInputError("fidelity level outside hyperparameter range")
    val = mf_kernel_matrix(pa, la, pb, lb, hyper)[0, 0]
    if tuple(a) == tuple(b):
        val += noise_variances(la, hyper)[0]
    return float(val)


def posterior_cross_cov(state, pa, la, pb, lb) -> np.ndarray:
    """Posterior covariance between two query sets, in original units squared."""
    cov = state.cross_cov_norm(np.asarray(pa, dtype=np.float64), np.asarray(la, dtype=np.intp),
                               np.asarray(pb, dtype=np.float64), np.asarray(lb, dtype=np.intp))
    return cov * state.y_std**2


def forward_point_variance(state, pool, x, pending) -> float:
    """Expected point variance at x after conditioning on the pending inputs,
    through one dense solve per point.

    Empty pending reduces to the current point variance; a noiseless
    pending set containing x itself removes all uncertainty and returns 0.
    """
    xp, xl = gather_points(pool, [x])
    mu, _ = state.mean_var_norm(xp, xl)
    # variance through the covariance path so that self-conditioning cancels
    # exactly instead of leaving sqrt-amplified round-off
    var = float(state.cross_cov_norm(xp, xl, xp, xl)[0, 0])
    if var < SIGMA_FLOOR**2:
        return 0.0
    s = (state.gamma_norm - mu[0]) / np.sqrt(var)
    if len(pending) == 0:
        return float(point_variance_beta(s, 1.0))
    mp, ml = gather_points(pool, pending)
    A = state.cross_cov_norm(mp, ml, mp, ml)
    A[np.diag_indices_from(A)] += noise_variances(ml, state.hyper)
    cross = state.cross_cov_norm(mp, ml, xp, xl)[:, 0]
    t_hat = 1.0 - float(cross @ np.linalg.solve(A, cross)) / var
    return float(point_variance_beta(s, t_hat))


def is_rate_trial(scores, truth, K: int, seed) -> tuple[float, float]:
    """One importance-sampling trial.

    Returns (p_hat, drawn recall): the unbiased rate estimate from K i.i.d.
    draws from scores.q, and the fraction of distinct failure indices among
    the draws.  An integer or sequence seed draws from default_rng([seed, 0]).
    """
    truth = np.asarray(truth, dtype=bool)
    n = truth.size
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng([seed, 0])
    idx = np.searchsorted(np.cumsum(scores.q), rng.random(K), side="right")
    p_hat = float(np.where(truth[idx], 1.0 / (n * scores.q[idx]), 0.0).mean())
    n_fail = int(truth.sum())
    recall = len(set(idx[truth[idx]].tolist())) / n_fail if n_fail else 0.0
    return p_hat, recall


def random_problem(rng, n_points=30, dim=2, n_train=8, n_levels=2, gamma=None,
                   jitter=1e-6, spread=1.0):
    """A random pool, log, and fitted posterior for property tests."""
    pool = EmbeddingPool(rng.standard_normal((n_points, dim)) * spread)
    hyper = GpHyperparams(
        lengthscales=rng.uniform(0.5, 2.0, dim),
        signal_var=rng.uniform(0.5, 2.0),
        fid_lengthscales=rng.uniform(0.5, 2.0, (n_levels - 1, dim)),
        fid_signal_var=rng.uniform(0.05, 0.3, n_levels - 1),
        fid_noise_var=rng.uniform(0.005, 0.05, n_levels - 1),
        jitter=jitter,
    )
    log = EvaluationLog()
    chosen = rng.choice(n_points, size=n_train, replace=False)
    for i in chosen:
        lvl = int(rng.integers(0, n_levels))
        log.append(AugmentedInput(int(i), lvl), float(rng.standard_normal()), 1)
    if gamma is None:
        gamma = float(np.quantile(log.value_array, 0.3)) if n_train else 0.0
    state = fit_posterior(pool, log, hyper, gamma)
    return pool, log, hyper, state


def dense_posterior_oracle(pool, log, hyper, q_points, q_levels):
    """Posterior mean/variance through plain dense solves (no Cholesky reuse)."""
    pts, lvls = gather_points(pool, log.inputs)
    y_mean, y_std = log.normalization()
    y = (log.value_array - y_mean) / y_std
    K = mf_kernel_matrix(pts, lvls, pts, lvls, hyper)
    K[np.diag_indices_from(K)] += noise_variances(lvls, hyper)
    Kinv = np.linalg.inv(K)
    Kq = mf_kernel_matrix(q_points, q_levels, pts, lvls, hyper)
    from rare_sampler.gp import prior_variances
    prior = prior_variances(q_levels, hyper)
    mu = Kq @ Kinv @ y
    var = prior - np.einsum("ij,jk,ik->i", Kq, Kinv, Kq)
    return mu * y_std + y_mean, np.maximum(var, 0.0) * y_std**2


def dense_mll_reference(pool, log, hyper, *, work=None, extra=0.0):
    """Marginal log likelihood and log-space gradient by the textbook formula:
    K from ``mf_kernel_matrix``, ``np.linalg.inv``, and one explicit dense,
    zero-padded dK per parameter in ``to_vector()`` order.  ``extra`` is added
    to K's diagonal, as a Cholesky rescue does, and leaves every dK alone.
    ``work`` (the shipped function's training workspace) is accepted and
    ignored."""
    pts, lvls = gather_points(pool, log.inputs)
    y_mean, y_std = log.normalization()
    y = (log.value_array - y_mean) / y_std
    n = len(y)
    K = mf_kernel_matrix(pts, lvls, pts, lvls, hyper)
    K[np.diag_indices_from(K)] += noise_variances(lvls, hyper) + extra
    Kinv = np.linalg.inv(K)
    a = Kinv @ y
    mll = -0.5 * y @ a - 0.5 * np.linalg.slogdet(K)[1] - 0.5 * n * np.log(2 * np.pi)

    def matern_derivs(mask, ls, sig):
        # dK / dlog lengthscale_j and dK / dlog sig, zero outside mask x mask
        P = pts[mask]
        u = ((P[:, None, :] - P[None, :, :]) / ls) ** 2
        r = np.sqrt(u.sum(axis=2))
        e = np.exp(-SQRT5 * r)
        slope = (5.0 / 3.0) * sig * (1.0 + SQRT5 * r) * e
        blocks = [slope * u[:, :, j] for j in range(len(ls))]
        blocks.append(sig * (1.0 + SQRT5 * r + 5.0 * r * r / 3.0) * e)
        out = []
        for b in blocks:
            full = np.zeros((n, n))
            full[np.ix_(mask, mask)] = b
            out.append(full)
        return out

    dKs = matern_derivs(np.arange(n), hyper.lengthscales, hyper.signal_var)
    for l in range(1, hyper.n_levels):
        mask = np.flatnonzero(lvls == l)
        dKs += matern_derivs(mask, hyper.fid_lengthscales[l - 1],
                             hyper.fid_signal_var[l - 1])
        dKs.append(np.diag(np.where(lvls == l, hyper.fid_noise_var[l - 1], 0.0)))
    dKs.append(hyper.jitter * np.eye(n))
    M = np.outer(a, a) - Kinv
    return float(mll), np.array([0.5 * np.sum(M * dK) for dK in dKs])


def naive_select_batch(state, pool, candidates, costs, targets, budget):
    """From-scratch greedy selection: refactorizes the conditioning covariance
    for every candidate at every step via acquisition_J."""
    pending: list[AugmentedInput] = []
    out = []
    total = 0.0
    remaining = list(zip(candidates, np.asarray(costs, dtype=float)))
    j_cur = acquisition_J(state, pool, pending, targets)
    while total < budget and remaining:
        best = None
        for cand, cost in remaining:
            j_new = acquisition_J(state, pool, pending + [cand], targets)
            value = min(j_new - j_cur, 0.0) / cost
            key = (value, cand.point_index, cand.level)
            if best is None or key < best[0]:
                best = (key, cand, cost, j_new)
        key, cand, cost, j_new = best
        pending.append(cand)
        out.append((cand, min(j_new - j_cur, 0.0), cost))
        j_cur = j_new
        total += cost
        remaining = [(c, co) for c, co in remaining if c != cand]
    return out


def simulate_conditioned_posteriors(state, pool, pending, n_draws, rng):
    """Sample future observations at the pending inputs and return, per draw,
    the updated posterior mean at every pool point together with the fixed
    updated covariance (the GP variance does not depend on the draws)."""
    mp, ml = gather_points(pool, pending)
    A = state.cross_cov_norm(mp, ml, mp, ml)
    A[np.diag_indices_from(A)] += noise_variances(ml, state.hyper)
    n = pool.n_points
    lv0 = np.zeros(n, dtype=np.intp)
    cross = state.cross_cov_norm(pool.points, lv0, mp, ml)        # N x m
    mu0, _ = state.mean_var_norm(pool.points, lv0)
    mu_pending, _ = state.mean_var_norm(mp, ml)
    G = cross @ np.linalg.inv(A)                                   # N x m
    L = np.linalg.cholesky(A)
    draws = mu_pending[None, :] + rng.standard_normal((n_draws, len(pending))) @ L.T
    mu_new = mu0[None, :] + (draws - mu_pending[None, :]) @ G.T    # draws x N
    cov0 = state.cross_cov_norm(pool.points, lv0, pool.points, lv0)
    cov_new = cov0 - G @ cross.T
    return mu_new, cov_new


def reference_sq_dists(points, centers):
    """Expanded squared distances as one expression with fresh temporaries."""
    return (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )


def reference_cluster_with_merges(pool, hyper, S, S_hat, seed) -> ClusterAssignment:
    """The merge loop over per-group index arrays: one distance block from the
    smallest group to all points per merge, sliced per neighbor by column
    gathers.  Ties (smallest size, nearest distance) break on lowest id."""
    if not 1 <= S <= S_hat <= pool.n_points:
        raise InvalidInputError("need 1 <= S <= S_hat <= N")
    z = scale_points(pool, hyper)
    assign = kmeans(z, S_hat, seed)
    labels = assign.labels.copy()
    groups: dict[int, np.ndarray] = {j: np.flatnonzero(labels == j)
                                     for j in range(assign.n_clusters)}
    z32 = z.astype(np.float32)
    for _ in range(S_hat - S):
        sizes = sorted((len(idx), cid) for cid, idx in groups.items())
        smallest = sizes[0][1]
        a_idx = groups[smallest]
        # squared distances preserve the min/max ordering; sqrt only at the end
        d2 = np.maximum(reference_sq_dists(z32[a_idx], z32), 0.0)
        col_min = d2.min(axis=0)
        best = None
        for cid, idx in groups.items():
            if cid == smallest:
                continue
            dist2 = max(float(d2[:, idx].min(axis=1).max()),
                        float(col_min[idx].max()))
            if best is None or (dist2, cid) < best:
                best = (dist2, cid)
        target = best[1]
        groups[target] = np.sort(np.concatenate([groups[target], groups[smallest]]))
        del groups[smallest]
    for cid, idx in groups.items():
        labels[idx] = cid
    return ClusterAssignment(_relabel(labels))


def reference_mc_run(pool, oracle, batches, m1, m_b, seed):
    """The mc method as its own loop: every batch b a level-0 random batch
    from the stream [seed, b], then seeded random scores from [seed, 1].
    Returns (EvaluationLog, ScoreVector)."""
    log = EvaluationLog()
    for b in range(1, batches + 1):
        run_random_batch(pool, FidelityConfig((1.0,)), m1 if b == 1 else m_b,
                         oracle, log, b, seed=[seed, b])
    return log, mc_scores(pool.n_points, seed=[seed, 1])


def reference_cross_entropy(pool: EmbeddingPool, oracle, batches: int, m1: int, m_b: int,
                            seed):
    """Cross-entropy search snapped to the pool, as one loop.

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
    mean, var = _fit_elite_gaussian(pts, vals, CE_ELITES, var_floor)
    state = CeState(mean=mean, var=var)

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
                                        np.asarray(batch_vals), CE_ELITES, var_floor)
        state = CeState(mean=mean, var=var)
    return state, gaussian_pdf_scores(state, pool), log
