"""Forward-looking point variance, the batch acquisition objective, and
cost-normalized greedy sequential selection with recursive updates.

Conditioning a GP on m future evaluation locations shrinks the predictive
variance at every pool point x by a projection through the pending-set
covariance.  The resulting expected Bernoulli variance has the closed form

    beta(s, t_hat) = Phi2(s, -s; corr = t_hat - 1) = 2 * OwenT(s, sqrt(t_hat / (2 - t_hat)))

with s = (gamma - mu_n(x)) / sigma_n(x) and t_hat = 1 - proj / sigma_n^2(x).
The acquisition J is the pool average of beta; greedy selection minimizes
the cost-normalized decrease of J.

``PendingSet`` takes its targets' and candidates' posterior mean, variance
and whitened cross-kernels from ``PosteriorState.query`` (zero rows for the
prior) and maintains the projections for every (target, candidate) pair
through rank-one updates, starting from zero pending rows, instead of a
fresh factorization per candidate.  Step k recomputes the residuals from
the k recursion rows (bT^T bC, in the sweep and the exact stage), so it
costs O((c + k) * |T| * |C|), c the per-cell work of the bounds and the
Chebyshev pass.  The k term is small at the k a queue reaches (11.4 ns
per cell-step at k < 5, 13.0 ns at k >= 40, bams at N = 3000 on a 2-vCPU
Xeon), and a rank-one residual downdate, which drops it, measured slower.
Because beta is concave in t_hat with beta(s, 0) = 0, each candidate's gain
admits certified tangent (lower) and chord (upper) bounds that are linear in
the projection increment; the selector evaluates the exact gain only for
candidates whose optimistic bound can still win.

Most targets of a cluster are already resolved: their point variance is
zero or negligible.  Since beta(s, t_hat) falls as t_hat falls, a target
adds between 0 and beta(s, 1) to any candidate's gain at every step of the
queue, so ``PendingSet`` drops, once at set-up, every target with
beta(s, 1) == 0 (a deterministic one, scored s = +-inf by
``threshold_scores``, among them) and then the smallest-beta targets that
together hold at most ``_ROW_TOL`` of the total (``dropped_beta``).  Step
k then costs O((c + k) * |T_live| * |C|).  J and deltaJ stay averages over
all ``n_targets`` targets and move by at most ``dropped_beta / n_targets``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import owens_t

from .errors import InvalidInputError, NumericalError
from .estimator import threshold_scores
from .gp import PosteriorState, matern25_matrix, mf_kernel_matrix, noise_variances
from .pool import EmbeddingPool, check_budget, gather_points, input_array

# Schur complements below this fraction of the largest candidate variance
# mean the candidate is already determined by the pending set.
H_FLOOR_REL = 1e-12

# Target rows whose point variance together holds at most this fraction of
# the total are pruned for the whole queue.
_ROW_TOL = 1e-12

_BLOCK = 192  # exact-stage column block

_TC_CHUNK = 2048  # candidate columns per pass of the scaled-row assembly

# Chebyshev interpolation of a -> 2*OwenT(s, a) on [0, 1]: degree 14 keeps the
# absolute error below 6e-12, well under the selection tolerances
_CHEB_N = 15
_CHEB_X = np.cos(np.pi * (np.arange(_CHEB_N) + 0.5) / _CHEB_N)
_CHEB_A = 0.5 * (_CHEB_X + 1.0)
_CHEB_M = (2.0 / _CHEB_N) * np.cos(
    np.outer(np.arange(_CHEB_N), np.arccos(_CHEB_X)))
_CHEB_M[0] *= 0.5


def point_variance_beta(s, t_hat):
    """Expected point variance after conditioning: 2 * OwenT(s, sqrt(t/(2-t)))."""
    t = np.clip(t_hat, 0.0, 1.0)
    return 2.0 * owens_t(s, np.sqrt(t / (2.0 - t)))


def _beta_slope(s, t_hat):
    """d beta / d t_hat; zero where the target is already resolved."""
    t = np.clip(t_hat, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        out = np.exp(-s * s / (2.0 - t)) / (2.0 * np.pi * np.sqrt(t * (2.0 - t)))
    return np.where(t > 1e-14, out, 0.0)


def acquisition_J(state: PosteriorState, pool: EmbeddingPool, pending,
                  targets) -> float:
    """Average forward-looking point variance over the target inputs.

    With an empty pending set this equals the average point variance, the
    upper bound on the current estimator variance.  With no live target J
    is +0.0, but the pending covariance is still factorized: one that is not
    positive definite even with 1e-10 extra jitter raises NumericalError.
    """
    if len(targets) == 0:
        raise InvalidInputError("target set is empty")
    tp, tl = gather_points(pool, targets)
    mu, var, Vt = state.query(tp, tl)
    s, live = threshold_scores(state, mu, var)
    # an empty pending set has zero rows: v is (0, n) and t_hat exactly 1
    mp, ml = gather_points(pool, pending)
    Vp = state.query(mp, ml)[2]
    A = mf_kernel_matrix(mp, ml, mp, ml, state.hyper) - Vp.T @ Vp
    A[np.diag_indices_from(A)] += noise_variances(ml, state.hyper)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        A[np.diag_indices_from(A)] += 1e-10 * max(state.hyper.signal_var, 1.0)
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"pending-set covariance of {len(pending)} inputs is not positive "
                f"definite even with 1e-10 extra jitter") from exc
    cross = (mf_kernel_matrix(mp, ml, tp[live], tl[live], state.hyper)
             - Vp.T @ Vt[:, live])
    v = solve_triangular(L, cross, lower=True)
    t_hat = 1.0 - np.einsum("ij,ij->j", v, v) / var[live]
    return float(point_variance_beta(s[live], t_hat).sum()) / len(targets)


class PendingSet:
    """Greedy selection state over a fixed target set and candidate set.

    Targets are the level-0 inputs whose point variance the acquisition
    averages; candidates are the augmented inputs available for evaluation,
    each with a cost.  Both come as (n, 2) index arrays of (point index,
    level) rows or as sequences of such pairs; ``candidates`` keeps the
    candidate array, ``selected`` the picks in order as (k, 2) rows of it
    and ``selected_costs`` their costs.  The recursion adds one pending input
    at a time, step k in O((c + k) * |T_live| * |C|) (module docstring):
    ``n_live_targets`` of the ``n_targets`` targets stay after pruning, and
    ``dropped_beta`` is the summed point variance beta(s, 1) of the pruned
    ones.  A pick's prior covariance with every candidate is its row of
    ``mf_kernel_matrix``, the posterior's own kernel, so a candidate level
    outside the GP's levels is an error.  An empty candidate set is zero
    columns: the first ``select_next`` returns None.
    """

    def __init__(self, state: PosteriorState, pool: EmbeddingPool, targets,
                 candidates, costs):
        self.state = state
        self.candidates = input_array(pool, candidates)
        self.costs = np.asarray(costs, dtype=np.float64)
        if (self.costs.shape != (len(self.candidates),)
                or not np.all((0.0 < self.costs) & (self.costs < np.inf))):
            raise InvalidInputError("costs must be positive and finite, one per candidate")
        hyper = state.hyper

        tp, tl = gather_points(pool, targets)
        if not tl.size:
            raise InvalidInputError("target set is empty")
        if tl.any():
            # a level-0 target's covariance with every candidate is the base
            # kernel alone, so the target rows hold no discrepancy term
            raise InvalidInputError(f"targets must be level-0 inputs, got level "
                                    f"{tl[tl != 0][0]}")
        cand_idx, cl = self.candidates.T
        cp = pool.points[cand_idx]
        self._cp, self._cl = cp, cl
        self.n_targets = len(tl)

        # candidate points repeat across fidelity levels: build the base kernel
        # block once per unique point and gather columns
        upts, inv = np.unique(cand_idx, return_inverse=True)

        # the whitened cross-kernels V = L^{-1} K(train, x) have one row per
        # training input, none for the prior
        mu_t, var_t, Va = state.query(tp, tl)
        _, var_c, Vc = state.query(cp, cl)
        self._Vc = Vc

        # one cumulative rule: the beta == 0 rows sort first and always go
        # (deterministic targets among them, as beta(+-inf, 1) = 0), then
        # the smallest rows holding at most _ROW_TOL of the total
        s_all = threshold_scores(state, mu_t, var_t)[0]
        beta0 = point_variance_beta(s_all, 1.0)
        order = np.argsort(beta0, kind="stable")
        cum = np.cumsum(beta0[order])
        dropped = order[cum <= _ROW_TOL * beta0.sum()]
        act = np.ones(self.n_targets, dtype=bool)
        act[dropped] = False
        self.dropped_beta = float(beta0[dropped].sum())
        self.n_live_targets = int(act.sum())
        self.s_T = s_all[act]
        self.var_T = var_t[act]
        self.that_T = np.ones(self.n_live_targets)

        base = matern25_matrix(tp[act], pool.points[upts], hyper.lengthscales,
                               hyper.signal_var)
        # assemble the scaled rows in TC: the base columns gathered once (inv
        # is in range, and mode="clip" spares the copy of TC that the default
        # mode makes), then chunk-wise the training correction subtracted and
        # the rows divided by sigma_t, so projection increments come out
        # already divided by the target variance
        TC = np.empty((self.n_live_targets, len(self.candidates)))
        np.take(base, inv, axis=1, out=TC, mode="clip")
        del base
        inv_sd = (1.0 / np.sqrt(self.var_T))[:, None]
        VaT = Va[:, act].T
        prod = np.empty((TC.shape[0], min(TC.shape[1], _TC_CHUNK)))
        for s0 in range(0, TC.shape[1], _TC_CHUNK):
            sl = slice(s0, min(s0 + _TC_CHUNK, TC.shape[1]))
            chunk = TC[:, sl]
            chunk -= np.matmul(VaT, Vc[:, sl], out=prod[:, :chunk.shape[1]])
            chunk *= inv_sd
        self.TCs = TC

        self.h_C = var_c + noise_variances(cl, hyper)
        self._h_floor = H_FLOOR_REL * float(self.h_C.max(initial=1e-300))

        # candidate ranks in (point_index, level, position) order: the tie-break
        self._rank = np.empty(len(cl), dtype=np.intp)
        self._rank[np.lexsort((cl, cand_idx))] = np.arange(len(cl))
        # per-target Chebyshev coefficients of a -> beta; s_T is fixed for the
        # lifetime of the selection, so this is a one-time fit
        self._cheb = _CHEB_M @ (2.0 * owens_t(self.s_T[None, :], _CHEB_A[:, None]))
        # scaled target and candidate rows of the recursion, one per pick;
        # the buffers double when full
        self._bT = np.empty((16, self.n_live_targets))
        self._bC = np.empty((16, len(self.candidates)))
        self._mask = np.zeros(len(self.candidates), dtype=bool)
        self._picked: list[int] = []
        self.total_cost = 0.0

    @property
    def selected(self) -> np.ndarray:
        return self.candidates[self._picked]

    @property
    def selected_costs(self) -> np.ndarray:
        return self.costs[self._picked]

    # -- current objective ----------------------------------------------------

    def _beta_cur(self) -> np.ndarray:
        return point_variance_beta(self.s_T, self.that_T)

    def J(self) -> float:
        """Acquisition value at the current pending set."""
        return float(self._beta_cur().sum()) / self.n_targets

    # -- internals -------------------------------------------------------------

    def _stacks(self):
        """The recursion rows of the k picks so far, zero rows at k = 0."""
        k = len(self._picked)
        return self._bT[:k], self._bC[:k]

    def _cov_to_candidates(self, idx: int) -> np.ndarray:
        """Posterior covariance between candidate idx and every candidate."""
        prior = mf_kernel_matrix(self._cp[idx:idx + 1], self._cl[idx:idx + 1],
                                 self._cp, self._cl, self.state.hyper)[0]
        return prior - self._Vc[:, idx] @ self._Vc

    def _beta_block(self, that_new: np.ndarray) -> np.ndarray:
        """Chebyshev evaluation of beta for a (targets x block) array of t_hat.

        Clenshaw recurrence with three rotating buffers to avoid allocation
        churn in the hot loop.
        """
        x = 2.0 * np.sqrt(that_new / (2.0 - that_new)) - 1.0
        tx = x + x
        b1 = np.zeros_like(x)
        b2 = np.zeros_like(x)
        tmp = np.empty_like(x)
        for j in range(_CHEB_N - 1, 0, -1):
            np.multiply(tx, b1, out=tmp)
            tmp += self._cheb[j][:, None]
            tmp -= b2
            b2, b1, tmp = b1, tmp, b2
        np.multiply(x, b1, out=tmp)
        tmp += self._cheb[0][:, None]
        tmp -= b2
        return tmp

    def _exact_columns(self, cols: np.ndarray, beta_sum: float) -> np.ndarray:
        """Gains (sum over live targets of beta decrease) for candidate
        columns; beta_sum is the current sum of beta over the live targets."""
        bT, bC = self._stacks()
        E = self.TCs[:, cols] - bT.T @ bC[:, cols]
        np.square(E, out=E)
        E /= self.h_C[cols][None, :]
        that_new = np.clip(self.that_T[:, None] - E, 0.0, 1.0)
        gains = beta_sum - self._beta_block(that_new).sum(axis=0)
        return np.maximum(gains, 0.0)

    def _block_best(self, block: np.ndarray, beta_sum: float):
        """The least (value, rank) candidate of a column block as (value,
        rank, column, gain per unit cost), value the cost-normalized change
        in J."""
        gains = self._exact_columns(block, beta_sum)
        vals = -gains / (self.costs[block] * self.n_targets)
        j = np.lexsort((self._rank[block], vals))[0]
        c = int(block[j])
        return float(vals[j]), int(self._rank[c]), c, gains[j] / self.costs[c]

    def _gain_bounds(self, beta: np.ndarray) -> np.ndarray:
        """Certified bounds on every candidate's gain, (2, |C|): row 0 the
        tangent (lower) bound, row 1 the chord (upper) bound; beta is the
        current beta of the live targets.  ``select_next`` proves the bounds
        and why E needs no clip at t_hat.

        Both bounds are linear in E = R^2 / h, so one matmul of the stacked
        weights per column chunk gives both, and dividing by h, a per-column
        scale, comes once after the reduction over targets.  Small column
        chunks keep the working set cache-resident.
        """
        bT, bC = self._stacks()
        TCs = self.TCs
        W = np.stack([_beta_slope(self.s_T, self.that_T),
                      beta / np.maximum(self.that_T, 1e-20)])
        n_cand = len(self.candidates)
        G = np.empty((2, n_cand))
        chunk = 512
        buf = np.empty((TCs.shape[0], chunk))
        for s0 in range(0, n_cand, chunk):
            sl = slice(s0, min(s0 + chunk, n_cand))
            E = buf[:, :sl.stop - s0]
            np.matmul(bT.T, bC[:, sl], out=E)
            np.subtract(TCs[:, sl], E, out=E)
            np.square(E, out=E)
            np.matmul(W, E, out=G[:, sl])
        G /= np.maximum(self.h_C, self._h_floor)
        return G

    def select_next(self):
        """Pick the candidate minimizing the cost-normalized change in J.

        Returns ((point index, level), deltaJ) and folds the choice into
        the recursion state, or None once no feasible candidate is left.
        Ties break on lowest point index, then level: with no live target all
        feasible candidates survive at gain 0, no block stops the scan (0 < 0
        is false), and the least (point, level) wins at deltaJ = +0.0.

        Bounds.  A target's gain from a candidate is beta(t) - beta(t - E),
        with t = t_hat and E = R^2 / h the candidate's projection increment
        (R its conditional covariance with the target, h its conditional
        variance).  beta is concave in t with beta(s, 0) = 0, so the gain
        lies between slope(t) * E (the tangent at t) and beta(t) / t * E (the
        chord from 0 to t), provided E <= t.  That holds in exact arithmetic:
        t - E is the target's conditional variance after the pick, scaled by
        its current one, and a variance is never negative; the sweep divides
        by max(h, h floor) >= h, which only shrinks E.  So E needs no clip at
        t, and only round-off can push it past; the 0.98 / 1.02 factors and
        the 1e-7 * scale term absorb that.  Only candidates whose widened
        upper bound reaches the best widened lower bound get their exact
        gain, in blocks of ``_BLOCK`` in falling upper-bound order, until no
        later block can win.
        """
        feas = ~self._mask & (self.h_C > self._h_floor)
        if not np.any(feas):
            return None
        feas_idx = np.flatnonzero(feas)

        beta = self._beta_cur()
        Lg, Ug = self._gain_bounds(beta)
        scale = float(Ug[feas_idx].max(initial=0.0))
        Um = (Ug * 1.02 + 1e-7 * scale) / self.costs
        Lm = np.maximum(Lg * 0.98 - 1e-7 * scale, 0.0) / self.costs
        threshold = float(Lm[feas_idx].max())
        surv = feas_idx[Um[feas_idx] >= threshold]
        order = surv[np.argsort(-Um[surv], kind="stable")]

        # the running best is the least (value, rank) pair; ranks are
        # distinct, so the tuple comparison never reaches the column
        beta_sum = beta.sum()
        best = self._block_best(order[:_BLOCK], beta_sum)
        for s0 in range(_BLOCK, order.size, _BLOCK):
            block = order[s0:s0 + _BLOCK]
            if float(Um[block[0]]) < best[3]:
                break
            best = min(best, self._block_best(block, beta_sum))
        best_val, _, best_idx, _ = best
        delta_j = best_val * self.costs[best_idx] + 0.0  # a zero gain's -0.0 to +0.0
        self._apply(best_idx)
        return tuple(self.candidates[best_idx].tolist()), float(delta_j)

    def _apply(self, idx: int) -> None:
        bT, bC = self._stacks()
        k = len(self._picked)
        if k == len(self._bT):
            self._bT = np.concatenate([self._bT, np.empty_like(self._bT)])
            self._bC = np.concatenate([self._bC, np.empty_like(self._bC)])
        e_t = self._bT[k]
        e_t[:] = self.TCs[:, idx]
        by = bC[:, idx]
        e_t -= by @ bT
        cov_c = self._cov_to_candidates(idx) - by @ bC
        h_y = self.h_C[idx]
        sq = np.sqrt(h_y)
        e_t /= sq
        e_c = np.divide(cov_c, sq, out=self._bC[k])
        self.that_T = np.clip(self.that_T - e_t * e_t, 0.0, 1.0)
        self.h_C = np.maximum(self.h_C - e_c * e_c, 0.0)
        self._mask[idx] = True
        self._picked.append(idx)
        self.total_cost += float(self.costs[idx])


def select_batch(state: PosteriorState, pool: EmbeddingPool, candidates, costs,
                 targets, budget: float):
    """Repeat greedy selection until the accumulated cost reaches the budget.

    Returns (inputs, delta_j, cost) in selection order: (m, 2) index rows and
    (m,) arrays.  Exhausting the candidates returns the partial selection,
    an empty one when the candidate set is empty or exhausted at the start.
    """
    check_budget(budget)
    pending = PendingSet(state, pool, targets, candidates, costs)
    delta_j = []
    while pending.total_cost < budget and (step := pending.select_next()) is not None:
        delta_j.append(step[1])
    return pending.selected, np.array(delta_j), pending.selected_costs
