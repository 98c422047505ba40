"""Forward-looking point variance, the batch acquisition objective, and
cost-normalized greedy sequential selection with recursive updates.

Conditioning a GP on m future evaluation locations shrinks the predictive
variance at every pool point x by a projection through the pending-set
covariance.  The resulting expected Bernoulli variance has the closed form

    beta(s, t_hat) = Phi2(s, -s; corr = t_hat - 1) = 2 * OwenT(s, sqrt(t_hat / (2 - t_hat)))

with s = (gamma - mu_n(x)) / sigma_n(x) and t_hat = 1 - proj / sigma_n^2(x).
The acquisition J is the pool average of beta; greedy selection minimizes
the cost-normalized decrease of J.

``PendingSet`` maintains the projections for every (target, candidate)
pair through rank-one updates, so a full greedy step costs O(|T| * |C|)
instead of a fresh factorization per candidate.  Because beta is concave
in t_hat with beta(s, 0) = 0, each candidate's gain admits certified
tangent (lower) and chord (upper) bounds that are linear in the projection
increment; the selector evaluates the exact gain only for candidates whose
optimistic bound can still win.
"""

from __future__ import annotations

import numpy as np
from scipy.special import owens_t

from .errors import EmptySelectionError, InvalidInputError, NumericalError
from .estimator import SIGMA_FLOOR
from .gp import (PosteriorState, matern25_matrix, mf_kernel_matrix,
                 noise_variances, prior_variances)
from .pool import AugmentedInput, EmbeddingPool, gather_points

# Schur complements below this fraction of the largest candidate variance
# mean the candidate is already determined by the pending set.
H_FLOOR_REL = 1e-12

_BLOCK = 192  # exact-stage column block

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


def _pending_solve(state: PosteriorState, pool: EmbeddingPool, pending):
    """Cholesky of the pending-set conditioning covariance (with white noise)."""
    mp, ml = gather_points(pool, pending)
    A = state.cross_cov_norm(mp, ml, mp, ml)
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
    return mp, ml, L


def forward_point_variance(state: PosteriorState, pool: EmbeddingPool,
                           x: AugmentedInput, pending) -> float:
    """Expected point variance at x after conditioning on the pending inputs.

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
    mp, ml, L = _pending_solve(state, pool, pending)
    cross = state.cross_cov_norm(mp, ml, xp, xl)
    v = np.linalg.solve(L, cross[:, 0])
    t_hat = 1.0 - float(v @ v) / var
    return float(point_variance_beta(s, t_hat))


def acquisition_J(state: PosteriorState, pool: EmbeddingPool, pending,
                  targets) -> float:
    """Average forward-looking point variance over the target inputs.

    With an empty pending set this equals the average point variance, the
    upper bound on the current estimator variance.
    """
    if len(targets) == 0:
        raise InvalidInputError("target set is empty")
    tp, tl = gather_points(pool, targets)
    mu, var = state.mean_var_norm(tp, tl)
    active = var >= SIGMA_FLOOR**2
    if not np.any(active):
        return 0.0
    s = (state.gamma_norm - mu[active]) / np.sqrt(var[active])
    if len(pending) == 0:
        t_hat = np.ones(active.sum())
    else:
        mp, ml, L = _pending_solve(state, pool, pending)
        cross = state.cross_cov_norm(mp, ml, tp[active], tl[active])
        v = np.linalg.solve(L, cross)
        t_hat = 1.0 - np.einsum("ij,ij->j", v, v) / var[active]
    return float(point_variance_beta(s, t_hat).sum()) / len(targets)


class PendingSet:
    """Greedy selection state over a fixed target set and candidate set.

    Targets are the pool points whose point variance the acquisition
    averages (level 0 in the driver); candidates are the augmented inputs
    available for evaluation, each with a cost.  The recursion adds one
    pending input at a time in O(|T| * |C|).
    """

    def __init__(self, state: PosteriorState, pool: EmbeddingPool, targets,
                 candidates, costs):
        if len(candidates) == 0:
            raise EmptySelectionError("no candidates to select from")
        self.state = state
        self.targets = list(targets)
        self.candidates = [AugmentedInput(int(c[0]), int(c[1])) for c in candidates]
        self.costs = np.asarray(costs, dtype=np.float64)
        if self.costs.shape != (len(self.candidates),) or np.any(self.costs <= 0):
            raise InvalidInputError("costs must be positive, one per candidate")
        hyper = state.hyper

        tp, tl = gather_points(pool, self.targets)
        cp, cl = gather_points(pool, self.candidates)
        self.n_targets = len(self.targets)

        # candidate points repeat across fidelity levels: build the base kernel
        # block once per unique point and gather columns
        cand_idx = np.array([c.point_index for c in self.candidates], dtype=np.intp)
        upts, inv = np.unique(cand_idx, return_inverse=True)

        if state.n_train:
            from scipy.linalg import solve_triangular
            Kxt = mf_kernel_matrix(state.train_points, state.train_levels, tp, tl,
                                   hyper)
            Kxc = mf_kernel_matrix(state.train_points, state.train_levels, cp, cl,
                                   hyper)
            Va = solve_triangular(state.chol, Kxt, lower=True)
            Vc = solve_triangular(state.chol, Kxc, lower=True)
            mu_t = Kxt.T @ state.alpha
            var_t = np.maximum(prior_variances(tl, hyper)
                               - np.einsum("ij,ij->j", Va, Va), 0.0)
            var_c = np.maximum(prior_variances(cl, hyper)
                               - np.einsum("ij,ij->j", Vc, Vc), 0.0)
        else:
            Va = Vc = None
            mu_t = np.zeros(len(self.targets))
            var_t = prior_variances(tl, hyper)
            var_c = prior_variances(cl, hyper)
        self._Vc = Vc

        act = var_t >= SIGMA_FLOOR**2
        self.s_T = (state.gamma_norm - mu_t[act]) / np.sqrt(var_t[act])
        self.var_T = var_t[act]
        self.that_T = np.ones(int(act.sum()))

        base = matern25_matrix(tp[act], pool.points[upts], hyper.lengthscales,
                               hyper.signal_var)
        # assemble scaled rows chunk-wise: the rows are divided by sigma_t so
        # projection increments come out already divided by the target variance
        TC = np.empty((int(act.sum()), len(self.candidates)))
        inv_sd = (1.0 / np.sqrt(self.var_T))[:, None]
        VaT = Va[:, act].T if Va is not None else None
        for s0 in range(0, TC.shape[1], 2048):
            sl = slice(s0, min(s0 + 2048, TC.shape[1]))
            chunk = base[:, inv[sl]]
            if VaT is not None:
                chunk = chunk - VaT @ Vc[:, sl]
            chunk *= inv_sd
            TC[:, sl] = chunk
        for l in range(1, hyper.n_levels):
            rows = np.flatnonzero(tl[act] == l)
            cols = np.flatnonzero(cl == l)
            if rows.size and cols.size:
                disc = matern25_matrix(tp[act][rows], cp[cols],
                                       hyper.fid_lengthscales[l - 1],
                                       hyper.fid_signal_var[l - 1])
                TC[np.ix_(rows, cols)] += disc * inv_sd[rows]
        self.TCs = TC

        self.h_C = var_c + noise_variances(cl, hyper)
        self._h_floor = H_FLOOR_REL * max(float(self.h_C.max()), 1e-300)

        self._cp, self._cl = cp, cl
        # per-target Chebyshev coefficients of a -> beta; s_T is fixed for the
        # lifetime of the selection, so this is a one-time fit
        self._cheb = _CHEB_M @ (2.0 * owens_t(self.s_T[None, :], _CHEB_A[:, None]))
        self._bT: list[np.ndarray] = []   # scaled target rows of the recursion
        self._bC: list[np.ndarray] = []
        self._mask = np.zeros(len(self.candidates), dtype=bool)
        self.selected: list[AugmentedInput] = []
        self.total_cost = 0.0

    # -- current objective ----------------------------------------------------

    def _beta_cur(self) -> np.ndarray:
        return point_variance_beta(self.s_T, self.that_T)

    def J(self) -> float:
        """Acquisition value at the current pending set."""
        return float(self._beta_cur().sum()) / self.n_targets

    # -- internals -------------------------------------------------------------

    def _stacks(self):
        if not self._bT:
            return None, None
        return np.asarray(self._bT), np.asarray(self._bC)

    def _cov_to_candidates(self, idx: int) -> np.ndarray:
        """Posterior covariance between candidate idx and every candidate."""
        prior = mf_kernel_matrix(self._cp[idx:idx + 1], self._cl[idx:idx + 1],
                                 self._cp, self._cl, self.state.hyper)[0]
        if self._Vc is None:
            return prior
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

    def _exact_columns(self, cols: np.ndarray) -> np.ndarray:
        """Gains (sum over targets of beta decrease) for candidate columns."""
        bT, bC = self._stacks()
        E = self.TCs[:, cols]
        if bT is not None:
            E = E - bT.T @ bC[:, cols]
        np.square(E, out=E)
        E /= self.h_C[cols][None, :]
        that_new = np.clip(self.that_T[:, None] - E, 0.0, 1.0)
        gains = self._beta_cur().sum() - self._beta_block(that_new).sum(axis=0)
        return np.maximum(gains, 0.0)

    def select_next(self):
        """Pick the candidate minimizing the cost-normalized change in J.

        Returns (chosen AugmentedInput, deltaJ) and folds the choice into
        the recursion state.  Ties break on lowest point index, then level.
        """
        feas = ~self._mask & (self.h_C > self._h_floor)
        if not np.any(feas):
            raise EmptySelectionError("candidate set exhausted")
        feas_idx = np.flatnonzero(feas)

        if self.s_T.size == 0:
            best = self._lexicographic_best(feas_idx)
            self._apply(best)
            return self.candidates[best], 0.0

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
            if bT is not None:
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
            # nothing can improve J; fall back to deterministic tie-break
            best = self._lexicographic_best(feas_idx)
            self._apply(best)
            return self.candidates[best], 0.0
        Um = (Ug * 1.02 + 1e-7 * scale) / self.costs
        Lm = np.maximum(Lg * 0.98 - 1e-7 * scale, 0.0) / self.costs

        threshold = float(Lm[feas_idx].max())
        surv = feas_idx[Um[feas_idx] >= threshold]
        order = surv[np.argsort(-Um[surv], kind="stable")]

        best_idx = -1
        best_val = np.inf
        best_rate = -np.inf
        for s0 in range(0, order.size, _BLOCK):
            block = order[s0:s0 + _BLOCK]
            if best_idx >= 0 and float(Um[block[0]]) < best_rate:
                break
            gains = self._exact_columns(block)
            vals = -gains / (self.costs[block] * self.n_targets)
            for j in np.argsort(vals, kind="stable"):
                c = int(block[j])
                v = float(vals[j])
                if (best_idx < 0 or v < best_val
                        or (v == best_val and self.candidates[c] < self.candidates[best_idx])):
                    best_idx = c
                    best_val = v
                    best_rate = gains[j] / self.costs[c]
        delta_j = min(best_val * self.costs[best_idx], 0.0)
        self._apply(best_idx)
        return self.candidates[best_idx], float(delta_j)

    def _lexicographic_best(self, feas_idx: np.ndarray) -> int:
        keys = [(self.candidates[i].point_index, self.candidates[i].level, i)
                for i in feas_idx]
        return min(keys)[2]

    def _apply(self, idx: int) -> None:
        bT, bC = self._stacks()
        e_t = self.TCs[:, idx].copy()
        cov_c = self._cov_to_candidates(idx)
        if bT is not None:
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
        self.selected.append(self.candidates[idx])
        self.total_cost += float(self.costs[idx])
        self._last_cost = float(self.costs[idx])


def select_batch(state: PosteriorState, pool: EmbeddingPool, candidates, costs,
                 targets, budget: float):
    """Repeat greedy selection until the accumulated cost reaches the budget.

    Returns [(input, deltaJ, cost)] in selection order.  Exhausting the
    candidates mid-way returns the partial list; an initially empty
    candidate set raises EmptySelectionError.
    """
    if budget <= 0:
        raise InvalidInputError("budget must be positive")
    pending = PendingSet(state, pool, targets, candidates, costs)
    out = []
    while pending.total_cost < budget:
        try:
            chosen, dj = pending.select_next()
        except EmptySelectionError:
            if not out:
                raise
            break
        out.append((chosen, dj, pending._last_cost))
    return out
