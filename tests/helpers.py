"""Shared fixtures and independent reference implementations used as oracles."""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import ndtr

from rare_sampler import (CeState, ClusterAssignment, EmbeddingPool,
                          EvaluationLog, FidelityConfig, GpHyperparams, InvalidInputError,
                          acquisition_J, fit_posterior, gaussian_pdf_scores, kmeans, mc_scores,
                          random_acquisition, scale_points)
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from rare_sampler import PendingSet, select_batch
from rare_sampler import acquisition, gp
from rare_sampler.acquisition import _BLOCK, _beta_slope, point_variance_beta
from rare_sampler.baselines import CE_ELITES, CE_VAR_FLOOR_REL
from rare_sampler.clustering import _relabel
from rare_sampler.estimator import SIGMA_FLOOR
from rare_sampler.gp import (SQRT5, _matern_pairs, _MllWork, _solve_chol, matern25_matrix,
                             mf_kernel_matrix, noise_variances, prior_variances)
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
        log.append((int(i), lvl), float(rng.standard_normal()), 1)
    if gamma is None:
        gamma = float(np.quantile(log.values, 0.3)) if n_train else 0.0
    state = fit_posterior(pool, log, hyper, gamma)
    return pool, log, hyper, state


def dense_posterior_oracle(pool, log, hyper, q_points, q_levels):
    """Posterior mean/variance through plain dense solves (no Cholesky reuse)."""
    pts, lvls = gather_points(pool, log.inputs)
    y_mean, y_std = log.normalization()
    y = (log.values - y_mean) / y_std
    K = mf_kernel_matrix(pts, lvls, pts, lvls, hyper)
    K[np.diag_indices_from(K)] += noise_variances(lvls, hyper)
    Kinv = np.linalg.inv(K)
    Kq = mf_kernel_matrix(q_points, q_levels, pts, lvls, hyper)
    prior = prior_variances(q_levels, hyper)
    mu = Kq @ Kinv @ y
    var = prior - np.einsum("ij,jk,ik->i", Kq, Kinv, Kq)
    return mu * y_std + y_mean, np.maximum(var, 0.0) * y_std**2


def reference_mean_var_norm(state, points, levels):
    """``PosteriorState.mean_var_norm`` in one pass over every query: the
    whole cross-kernel and its triangular solve at once."""
    prior = prior_variances(levels, state.hyper)
    Kq = mf_kernel_matrix(points, levels, state.train_points, state.train_levels,
                          state.hyper)
    mu = Kq @ state.alpha
    v = solve_triangular(state.chol, Kq.T, lower=True)
    return mu, np.maximum(prior - np.einsum("ij,ij->j", v, v), 0.0)


def reference_scaled_rows(state, pool, targets, candidates):
    """``PendingSet.TCs`` assembled as fresh arrays: the live targets' rows of
    the posterior covariance to every candidate, divided by the target sd,
    one new 2048-column chunk per pass (gathered base columns minus a new
    product), copied into the result."""
    hyper = state.hyper
    tp, tl = gather_points(pool, targets)
    cand_idx, cl = np.asarray(candidates).T
    upts, inv = np.unique(cand_idx, return_inverse=True)
    # query-major cross-kernels K(x, train), as the posterior's own queries;
    # with no training data they have zero columns
    Ktx = mf_kernel_matrix(tp, tl, state.train_points, state.train_levels, hyper)
    Va = solve_triangular(state.chol, Ktx.T, lower=True)
    Vc = solve_triangular(state.chol, mf_kernel_matrix(
        pool.points[cand_idx], cl, state.train_points, state.train_levels, hyper).T,
        lower=True)
    mu_t = Ktx @ state.alpha
    var_t = np.maximum(prior_variances(tl, hyper) - np.einsum("ij,ij->j", Va, Va), 0.0)
    # the live rows: PendingSet's pruning rule
    act = var_t >= SIGMA_FLOOR**2
    s_all = np.zeros(len(tl))
    s_all[act] = (state.gamma_norm - mu_t[act]) / np.sqrt(var_t[act])
    beta0 = np.where(act, point_variance_beta(s_all, 1.0), 0.0)
    order = np.argsort(beta0, kind="stable")
    act[order[np.cumsum(beta0[order]) <= acquisition._ROW_TOL * beta0.sum()]] = False
    base = matern25_matrix(tp[act], pool.points[upts], hyper.lengthscales,
                           hyper.signal_var)
    TC = np.empty((int(act.sum()), len(cl)))
    inv_sd = (1.0 / np.sqrt(var_t[act]))[:, None]
    VaT = Va[:, act].T
    for s0 in range(0, TC.shape[1], 2048):
        sl = slice(s0, min(s0 + 2048, TC.shape[1]))
        chunk = base[:, inv[sl]] - VaT @ Vc[:, sl]
        chunk *= inv_sd
        TC[:, sl] = chunk
    return TC


def dense_mll_reference(pool, log, hyper, *, work=None, extra=0.0):
    """Marginal log likelihood and log-space gradient by the textbook formula:
    K from ``mf_kernel_matrix``, ``np.linalg.inv``, and one explicit dense,
    zero-padded dK per parameter in ``to_vector()`` order.  ``extra`` is added
    to K's diagonal, as a Cholesky rescue does, and leaves every dK alone.
    ``work`` (the shipped function's training workspace) is accepted and
    ignored."""
    pts, lvls = gather_points(pool, log.inputs)
    y_mean, y_std = log.normalization()
    y = (log.values - y_mean) / y_std
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
    pending: list[tuple[int, int]] = []
    out = []
    total = 0.0
    remaining = list(zip(candidates, np.asarray(costs, dtype=float)))
    j_cur = acquisition_J(state, pool, pending, targets)
    while total < budget and remaining:
        best = None
        for cand, cost in remaining:
            j_new = acquisition_J(state, pool, pending + [cand], targets)
            value = min(j_new - j_cur, 0.0) / cost
            key = (value, cand[0], cand[1])
            if best is None or key < best[0]:
                best = (key, cand, cost, j_new)
        key, cand, cost, j_new = best
        pending.append(cand)
        out.append((cand, min(j_new - j_cur, 0.0), cost))
        j_cur = j_new
        total += cost
        remaining = [(c, co) for c, co in remaining if c != cand]
    return out


def selection_arrays(items):
    """A reference's [(input, deltaJ, cost)] list as the (inputs, delta_j, cost)
    arrays of a batch step: (m, 2) index rows and two (m,) float arrays."""
    inputs = np.array([tuple(inp) for inp, _, _ in items], dtype=np.intp).reshape(-1, 2)
    return (inputs, np.array([dj for _, dj, _ in items], dtype=np.float64),
            np.array([cost for _, _, cost in items], dtype=np.float64))


def reference_merge_queues(queues, m_b):
    """Algorithm-1 global merge over queues of ((point, level), deltaJ, cost)
    tuples, one head at a time: the least (deltaJ / cost, point, level) head
    that keeps the batch cost below m_b, the first queue's on a full tie.  A
    head that does not fit blocks its queue.  Returns the merged tuples."""
    ptrs = [0] * len(queues)
    cost_g = 0.0
    out = []
    while cost_g < m_b:
        best = None
        for qi, queue in enumerate(queues):
            if ptrs[qi] >= len(queue):
                continue
            inp, dj, cost = queue[ptrs[qi]]
            if cost_g + cost >= m_b:
                continue
            key = (dj / cost, inp[0], inp[1])
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


def reference_write_csv(path, header, rows) -> None:
    """The artifact writer as a csv-module row loop: floats at 17 significant
    digits, every other value as str."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                    for row in rows)


def reference_cluster_queue(state, pool, members, evaluated, costs_by_level, budget):
    """One cluster's queue from (point, level) lists: the targets are the
    members at level 0, the candidates every (member, level) pair not in the
    ``evaluated`` set, point-major; no candidate gives an empty queue."""
    n_levels = len(costs_by_level)
    targets = [(int(i), 0) for i in members]
    candidates = [(int(i), l) for i in members for l in range(n_levels)
                  if (int(i), l) not in evaluated]
    costs = np.array([costs_by_level[c[1]] for c in candidates])
    return select_batch(state, pool, candidates, costs, targets, budget)


def reference_kmeans(points, k, seed):
    """k-means as one boolean-mask pass per center, with the distances built
    afresh each iteration: (labels before relabelling, final centers)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.maximum(reference_sq_dists(points, centers[:1]).ravel(), 0.0)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[np.searchsorted(np.cumsum(d2), rng.random() * total)]
        d2 = np.minimum(d2, np.maximum(reference_sq_dists(points, centers[j:j + 1]).ravel(),
                                       0.0))
    labels = np.full(n, -1, dtype=np.intp)
    for _ in range(100):
        d2 = reference_sq_dists(points, centers)
        new_labels = np.argmin(d2, axis=1)
        for j in range(k):
            sel = new_labels == j
            if not np.any(sel):
                worst = int(np.argmax(d2[np.arange(n), new_labels]))
                centers[j] = points[worst]
                new_labels[worst] = j
                sel = new_labels == j
            centers[j] = points[sel].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


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
        picks = random_acquisition(pool, FidelityConfig((1.0,)), m1 if b == 1 else m_b,
                                   seed=[seed, b], exclude=log.inputs)
        for i, level in picks.tolist():
            log.evaluate(oracle, (i, level), b)
    return log, mc_scores(pool.n_points, seed=[seed, 1])


def _elite_fit(points, values, var_floor) -> CeState:
    """The diagonal Gaussian of the CE_ELITES lowest values, ties in the
    given order, its variance floored."""
    elite = points[np.argsort(values, kind="stable")[:CE_ELITES]]
    return CeState(mean=elite.mean(axis=0), var=np.maximum(elite.var(axis=0), var_floor))


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
        log.evaluate(oracle, (int(i), 0), 1)
    state = _elite_fit(pool.points[first], log.values, var_floor)

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
        batch_vals = [log.evaluate(oracle, (i, 0), b)[0] for i in batch_idx]
        evaluated.update(batch_idx)
        state = _elite_fit(pool.points[batch_idx], np.asarray(batch_vals), var_floor)
    return state, gaussian_pdf_scores(state, pool), log


class ReferencePendingSet(PendingSet):
    """The greedy step before the folded bound sweep, kept as a bitwise oracle:
    the recursion rows in Python lists re-stacked on every call, each pick's
    kernel row rebuilt through ``mf_kernel_matrix``, a bound sweep of two
    matrix-vector products over clipped increments, and a Python loop over
    each exact-stage block with (point, level) comparisons."""

    def __init__(self, state, pool, targets, candidates, costs):
        super().__init__(state, pool, targets, candidates, costs)
        self._cp, self._cl = gather_points(pool, self.candidates)
        self._bT: list[np.ndarray] = []
        self._bC: list[np.ndarray] = []

    def _stacks(self):
        # zero rows at k = 0, as the inherited ``_exact_columns`` expects
        if not self._bT:
            return np.empty((0, self.n_live_targets)), np.empty((0, len(self.candidates)))
        return np.asarray(self._bT), np.asarray(self._bC)

    def _cov_to_candidates(self, idx: int) -> np.ndarray:
        prior = mf_kernel_matrix(self._cp[idx:idx + 1], self._cl[idx:idx + 1],
                                 self._cp, self._cl, self.state.hyper)[0]
        return prior - self._Vc[:, idx] @ self._Vc

    def select_next(self):
        feas = ~self._mask & (self.h_C > self._h_floor)
        if not np.any(feas):
            return None
        feas_idx = np.flatnonzero(feas)

        beta = self._beta_cur()
        slope = _beta_slope(self.s_T, self.that_T)
        uw = beta / np.maximum(self.that_T, 1e-20)

        # certified bound stage; small column chunks keep the working set
        # cache-resident
        bT, bC = self._stacks()
        TCs = self.TCs
        h = np.maximum(self.h_C, self._h_floor)
        that = self.that_T[:, None]
        n_cand = len(self.candidates)
        Lg = np.empty(n_cand)
        Ug = np.empty(n_cand)
        chunk = 512
        buf = np.empty((TCs.shape[0], chunk))
        for s0 in range(0, n_cand, chunk):
            sl = slice(s0, min(s0 + chunk, n_cand))
            E = buf[:, :sl.stop - s0]
            # the square-only pass at k = 0 checks the folded sweep's
            # zero-row product
            if len(bT):
                np.matmul(bT.T, bC[:, sl], out=E)
                np.subtract(TCs[:, sl], E, out=E)
            else:
                E[:] = TCs[:, sl]
            np.square(E, out=E)
            E /= h[None, sl]
            np.minimum(E, that, out=E)
            Lg[sl] = slope @ E
            Ug[sl] = uw @ E
        scale = float(Ug[feas_idx].max(initial=0.0))
        if scale == 0.0:
            # nothing can improve J (always so with no live targets); fall
            # back to the deterministic tie-break
            best = self._lexicographic_best(feas_idx)
            self._apply(best)
            return tuple(self.candidates[best].tolist()), 0.0
        Um = (Ug * 1.02 + 1e-7 * scale) / self.costs
        Lm = np.maximum(Lg * 0.98 - 1e-7 * scale, 0.0) / self.costs

        threshold = float(Lm[feas_idx].max())
        surv = feas_idx[Um[feas_idx] >= threshold]
        order = surv[np.argsort(-Um[surv], kind="stable")]

        best_idx = -1
        best_val = np.inf
        best_rate = -np.inf
        beta_sum = beta.sum()
        for s0 in range(0, order.size, _BLOCK):
            block = order[s0:s0 + _BLOCK]
            if best_idx >= 0 and float(Um[block[0]]) < best_rate:
                break
            gains = self._exact_columns(block, beta_sum)
            vals = -gains / (self.costs[block] * self.n_targets)
            for j in np.argsort(vals, kind="stable"):
                c = int(block[j])
                v = float(vals[j])
                if (best_idx < 0 or v < best_val
                        or (v == best_val and tuple(self.candidates[c])
                            < tuple(self.candidates[best_idx]))):
                    best_idx = c
                    best_val = v
                    best_rate = gains[j] / self.costs[c]
        delta_j = min(best_val * self.costs[best_idx], 0.0)
        self._apply(best_idx)
        return tuple(self.candidates[best_idx].tolist()), float(delta_j)

    def _lexicographic_best(self, feas_idx: np.ndarray) -> int:
        keys = [(*self.candidates[i].tolist(), i) for i in feas_idx]
        return min(keys)[2]

    def _apply(self, idx: int) -> None:
        bT, bC = self._stacks()
        e_t = self.TCs[:, idx].copy()
        cov_c = self._cov_to_candidates(idx)
        if len(bT):
            by = bC[:, idx]
            e_t -= by @ bT
            cov_c = cov_c - by @ bC
        h_y = self.h_C[idx]
        sq = np.sqrt(h_y)
        e_t /= sq
        e_c = cov_c / sq
        self.that_T = np.clip(self.that_T - e_t * e_t, 0.0, 1.0)
        self.h_C = np.maximum(self.h_C - e_c * e_c, 0.0)
        self._bT.append(e_t)
        self._bC.append(e_c)
        self._mask[idx] = True
        self._picked.append(idx)
        self.total_cost += float(self.costs[idx])


def reference_from_vector(template: GpHyperparams, vec: np.ndarray) -> GpHyperparams:
    """``GpHyperparams.from_vector`` as one exp per field, kept as a bitwise
    oracle."""
    self = template
    vec = np.asarray(vec, dtype=np.float64)
    d, n_low = self.dim, self.fid_signal_var.size
    if vec.size != self.n_params:
        raise InvalidInputError("hyperparameter vector has wrong length")
    pos = 0

    def take(k):
        nonlocal pos
        out = np.exp(vec[pos:pos + k])
        pos += k
        return out

    ls = take(d)
    sig = take(1)[0]
    fls, fsig, fnoi = [], [], []
    for _ in range(n_low):
        fls.append(take(d))
        fsig.append(take(1)[0])
        fnoi.append(take(1)[0])
    jit = take(1)[0]
    return GpHyperparams(ls, sig, np.array(fls).reshape(n_low, d),
                         np.array(fsig), np.array(fnoi), jit)


def reference_to_vector(hyper: GpHyperparams) -> np.ndarray:
    """``GpHyperparams.to_vector`` as one log per field, level by level, kept
    as a bitwise oracle."""
    parts = [np.log(hyper.lengthscales), [np.log(hyper.signal_var)]]
    for l in range(hyper.fid_signal_var.size):
        parts.append(np.log(hyper.fid_lengthscales[l]))
        parts.append([np.log(hyper.fid_signal_var[l])])
        parts.append([np.log(hyper.fid_noise_var[l])])
    parts.append([np.log(hyper.jitter)])
    return np.concatenate([np.atleast_1d(np.asarray(p)) for p in parts])


def reference_log_bounds(pool, template: GpHyperparams):
    """``gp._log_bounds`` built block by block from its own copy of the pool
    spread, kept as a bitwise oracle."""
    scale = pool.points.std(axis=0)
    scale = np.where(scale > 1e-8, scale, 1.0)
    lo_ls = np.log(gp._LENGTHSCALE_FACTOR_BOUNDS[0] * scale)
    hi_ls = np.log(gp._LENGTHSCALE_FACTOR_BOUNDS[1] * scale)
    lo_v, hi_v = np.log(gp._VAR_BOUNDS)
    lo, hi = [lo_ls, [lo_v]], [hi_ls, [hi_v]]
    for _ in range(template.fid_signal_var.size):
        lo += [lo_ls, [lo_v], [lo_v]]
        hi += [hi_ls, [hi_v], [hi_v]]
    lo.append([np.log(gp._JITTER_BOUNDS[0])])
    hi.append([np.log(gp._JITTER_BOUNDS[1])])
    return np.concatenate(lo), np.concatenate(hi)


def hyper_from_text(text: str) -> GpHyperparams:
    """Parse ``GpHyperparams.to_text``: one ``name = value`` line per
    parameter, the names of ``param_names``."""
    kv = {}
    for raw in text.splitlines():
        if raw.strip():
            if "=" not in raw:
                raise InvalidInputError(f"malformed hyperparameter line: {raw!r}")
            key, value = raw.split("=", 1)
            kv[key.strip()] = float(value)
    d = sum(key.startswith("lengthscale.") for key in kv)
    n_low = sum(key.endswith(".noise_var") for key in kv)
    fid = np.array([[kv[f"fid{l}.lengthscale.{j}"] for j in range(d)]
                    + [kv[f"fid{l}.signal_var"], kv[f"fid{l}.noise_var"]]
                    for l in range(1, n_low + 1)]).reshape(n_low, d + 2)
    return GpHyperparams(np.array([kv[f"lengthscale.{j}"] for j in range(d)]),
                         kv["signal_var"], fid[:, :d], fid[:, d], fid[:, d + 1],
                         kv["jitter"])


def reference_marginal_log_likelihood(pool, log, hyper, *, work=None):
    """The shipped marginal likelihood with the gradient gathered in a Python
    list, kept as a bitwise oracle."""
    if work is None:
        work = _MllWork(pool, log, hyper.n_levels)
    y, K, K_flat = work.y, work.K, work.K_flat
    n = len(y)
    diag = K_flat[::n + 1]  # K's, then the factor's after potrf, -M's after dsyr
    lss = [hyper.lengthscales, *hyper.fid_lengthscales]
    sigs = [hyper.signal_var, *hyper.fid_signal_var]
    parts = [_matern_pairs(D, ls, sig) for (_, _, D), ls, sig in zip(work.levels, lss, sigs)]
    k_sum = parts[0][0].copy() if len(parts) > 1 else parts[0][0]
    for (_, pos, _), (k, _) in zip(work.levels[1:], parts[1:]):
        k_sum[pos] += k
    prior_noise = prior_variances(work.lvls, hyper) + noise_variances(work.lvls, hyper)
    K_flat[work.flat] = k_sum
    diag[:] = prior_noise
    _, info = dpotrf(K, lower=0, clean=0, overwrite_a=1)
    if info:  # potrf stopped part way through K: refill it for the ladder
        K_flat[work.flat] = k_sum
        diag[:] = prior_noise
        L, _ = _solve_chol(K.T, hyper.signal_var)  # K.T's lower triangle is K's upper
        np.copyto(K, L.T)
    alpha, _ = dpotrs(K, y, lower=0)
    mll = -0.5 * float(y @ alpha) - float(np.log(diag).sum()) \
        - 0.5 * n * np.log(2.0 * np.pi)
    dpotri(K, lower=0, overwrite_c=1)  # K^{-1} in K's upper triangle
    dsyr(-1.0, alpha, lower=0, a=K, overwrite_a=1)  # K^{-1} - a a^T = -M
    Mp = K_flat[work.flat]
    Mp *= -1.0
    M_diag = -diag
    grad = []
    for l, ((obs, pos, D), (k, w), ls, sig) in enumerate(zip(work.levels, parts, lss, sigs)):
        trace = M_diag[obs].sum()
        Mp_l = Mp[pos]
        grad += list(2.0 * (D @ (Mp_l * w)) / (ls * ls))
        grad.append(2.0 * float(Mp_l @ k) + sig * trace)
        if l:
            grad.append(hyper.fid_noise_var[l - 1] * trace)
    grad.append(hyper.jitter * M_diag.sum())
    return mll, 0.5 * np.array(grad)
