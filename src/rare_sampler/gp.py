"""Matern-5/2 ARD kernels, the additive multifidelity kernel, exact GP
posteriors, and marginal-likelihood hyperparameter training.

The surrogate models the simulator output directly.  A single base GP
covers the reference (level-0) simulator; each cheaper level l >= 1 adds an
independent discrepancy GP with its own Matern kernel plus a white-noise
variance.  Training targets are standardized to zero mean / unit std before
fitting, and the failure threshold is transformed consistently, so all
hyperparameters live in normalized target units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .errors import InvalidInputError, NumericalError
from .pool import EmbeddingPool, EvaluationLog, gather_points

SQRT5 = np.sqrt(5.0)

# Cholesky rescue: extra diagonal, relative to the signal variance, grows
# tenfold per attempt and gives up at 1e-2.
_JITTER_LADDER = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)

# Query rows per pass of a posterior over many points (the pool-scale failure
# field): the cross-kernel and its triangular solve hold one tile, not the
# whole pool.
_QUERY_TILE = 2048


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel hyperparameters for the multifidelity GP.

    All values are positive and finite and are optimized in log space.
    ``fid_*`` arrays describe the discrepancy GPs of levels 1..L in order;
    they are empty in the single-fidelity case.
    """

    lengthscales: np.ndarray
    signal_var: float
    fid_lengthscales: np.ndarray
    fid_signal_var: np.ndarray
    fid_noise_var: np.ndarray
    jitter: float

    def __post_init__(self):
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=np.float64))
        fl = np.asarray(self.fid_lengthscales, dtype=np.float64).reshape(-1, ls.size)
        fs = np.atleast_1d(np.asarray(self.fid_signal_var, dtype=np.float64))
        fn = np.atleast_1d(np.asarray(self.fid_noise_var, dtype=np.float64))
        if fl.shape[0] != fs.size or fs.size != fn.size:
            raise InvalidInputError("inconsistent per-fidelity hyperparameter shapes")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "fid_lengthscales", fl)
        object.__setattr__(self, "fid_signal_var", fs)
        object.__setattr__(self, "fid_noise_var", fn)
        object.__setattr__(self, "signal_var", float(self.signal_var))
        object.__setattr__(self, "jitter", float(self.jitter))
        values = self._values()
        ok = (values > 0.0) & (values < np.inf)  # NaN fails both
        if not ok.all():
            i = int(np.argmin(ok))  # the first bad entry
            raise InvalidInputError(f"{self.param_names()[i]} must be positive and finite, "
                                    f"got {float(values[i])!r}")

    @property
    def dim(self) -> int:
        return self.lengthscales.size

    @property
    def n_levels(self) -> int:
        return 1 + self.fid_signal_var.size

    @staticmethod
    def defaults(pool: EmbeddingPool, n_levels: int = 1) -> "GpHyperparams":
        """Reasonable starting point: lengthscales from pool spread, unit signal."""
        scale = pool.points.std(axis=0)
        scale = np.where(scale > 1e-8, scale, 1.0)
        n_low = n_levels - 1
        return GpHyperparams(
            lengthscales=scale,
            signal_var=1.0,
            fid_lengthscales=np.tile(scale, (n_low, 1)),
            fid_signal_var=np.full(n_low, 0.1),
            fid_noise_var=np.full(n_low, 0.01),
            jitter=1e-6,
        )

    # -- log-space flattening (order matters for the optimizer) --------------

    def _values(self) -> np.ndarray:
        """Every value in ``param_names`` order."""
        fid = np.column_stack([self.fid_lengthscales, self.fid_signal_var,
                               self.fid_noise_var])  # per level, as from_vector reads it
        return np.concatenate([self.lengthscales, [self.signal_var], fid.ravel(),
                               [self.jitter]])

    def to_vector(self) -> np.ndarray:
        return np.log(self._values())

    def from_vector(self, vec: np.ndarray) -> "GpHyperparams":
        vec = np.asarray(vec, dtype=np.float64)
        d, n_low = self.dim, self.fid_signal_var.size
        if vec.size != self.n_params:
            raise InvalidInputError("hyperparameter vector has wrong length")
        e = np.exp(vec)
        fid = e[d + 1:-1].reshape(n_low, d + 2)  # per level: lengthscales, signal, noise
        return GpHyperparams(e[:d], e[d], fid[:, :d], fid[:, d], fid[:, d + 1], e[-1])

    @property
    def n_params(self) -> int:
        return self.dim + 2 + self.fid_signal_var.size * (self.dim + 2)

    def param_names(self) -> list[str]:
        names = [f"lengthscale.{j}" for j in range(self.dim)] + ["signal_var"]
        for l in range(1, self.n_levels):
            names += [f"fid{l}.lengthscale.{j}" for j in range(self.dim)]
            names += [f"fid{l}.signal_var", f"fid{l}.noise_var"]
        return names + ["jitter"]

    # -- flat text serialization ---------------------------------------------

    def to_text(self) -> str:
        """One ``name = value`` line per parameter, at 17 significant digits."""
        return "".join(f"{k} = {v:.17g}\n" for k, v in zip(self.param_names(), self._values()))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


# Rows of the kernel matrix finished per pass.  Blocks keep the scratch small
# and in cache.  Median ms per call, one BLAS thread, for 64/128/256/1024 rows
# and the whole matrix at once: 55/55/56/71/115 at 20000 x 207 (the pool
# against the training set), 325/353/419/474/732 at 4572 x 4500 (a
# PendingSet queue), 1.9 ms at 3000 x 60 with 128 rows against 1.7 with 1024.
_ROW_BLOCK = 128


def _scaled_sqdist(ab: np.ndarray, na: np.ndarray, nb: np.ndarray,
                   tmp: np.ndarray) -> np.ndarray:
    """Squared distances (na + nb) - 2 a b^T clipped at 0, in place over a
    block ``ab`` of the GEMM product a b^T of lengthscale-scaled points
    (``tmp``: scratch of the same shape)."""
    np.add(na[:, None], nb[None, :], out=tmp)
    ab *= 2.0
    np.subtract(tmp, ab, out=ab)
    return np.maximum(ab, 0.0, out=ab)


def matern25_matrix(A: np.ndarray, B: np.ndarray, lengthscales: np.ndarray,
                    signal_var: float) -> np.ndarray:
    """Matern-5/2 ARD kernel matrix between two point sets.

    One GEMM of the lengthscale-scaled points a = A / ls and b = B / ls
    writes a b^T into the output, which ``_ROW_BLOCK`` rows at a time becomes
    signal_var * (1 + sr + sr^2 / 3) * exp(-sr) with sr = sqrt5 * r, through
    in-place ufuncs in exactly that operation order.

    Where a GEMM is split can change the last bits of some entries (a GEMM
    per ``_ROW_BLOCK`` block here would), so a product is split only where
    working memory needs it and the results were checked: the pool-scale
    queries of ``PosteriorState.mean_var_norm``, one GEMM per query tile (at
    2048 rows a few entries in a million move by one ulp, and the failure
    field's p came out bitwise equal).  ``PendingSet``'s base block stays
    one GEMM: built per candidate chunk, it moved selection gains in their
    last bits.  A pick's kernel row is one row of ``mf_kernel_matrix``
    against every candidate, a one-row GEMM.
    """
    a = A / lengthscales
    b = B / lengthscales
    na, nb = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
    out = np.matmul(a, b.T)
    rows = min(len(a), _ROW_BLOCK)
    sr_buf, e_buf = np.empty((rows, len(b))), np.empty((rows, len(b)))
    for i0 in range(0, len(a), _ROW_BLOCK):
        k = out[i0:i0 + _ROW_BLOCK]
        sr, e = sr_buf[:len(k)], e_buf[:len(k)]
        np.sqrt(_scaled_sqdist(k, na[i0:i0 + _ROW_BLOCK], nb, sr), out=sr)
        sr *= SQRT5
        np.negative(sr, out=e)
        np.exp(e, out=e)
        np.multiply(sr, sr, out=k)
        k /= 3.0
        sr += 1.0
        np.add(sr, k, out=k)
        k *= signal_var
        k *= e
    return out


def mf_kernel_matrix(pa: np.ndarray, la: np.ndarray, pb: np.ndarray, lb: np.ndarray,
                     hyper: GpHyperparams) -> np.ndarray:
    """Covariance of the augmented GP between two sets of augmented inputs.

    Base kernel everywhere, plus the level's discrepancy kernel on pairs
    whose levels match and are >= 1.  White noise is *not* included; it
    attaches only to identical augmented inputs (see ``noise_variances``).
    """
    K = matern25_matrix(pa, pb, hyper.lengthscales, hyper.signal_var)
    for l in range(1, hyper.n_levels):
        ia = np.flatnonzero(la == l)
        ib = np.flatnonzero(lb == l)
        if ia.size and ib.size:
            K[np.ix_(ia, ib)] += matern25_matrix(
                pa[ia], pb[ib], hyper.fid_lengthscales[l - 1], hyper.fid_signal_var[l - 1]
            )
    return K


def noise_variances(levels: np.ndarray, hyper: GpHyperparams) -> np.ndarray:
    """Per-input white-noise variance: jitter everywhere plus the level's term."""
    return (hyper.jitter + np.concatenate(([0.0], hyper.fid_noise_var)))[levels]


def prior_variances(levels: np.ndarray, hyper: GpHyperparams) -> np.ndarray:
    """Latent prior variance per augmented input (no white noise)."""
    return (hyper.signal_var + np.concatenate(([0.0], hyper.fid_signal_var)))[levels]


def _check_levels(levels: np.ndarray, n_levels: int) -> None:
    """Reject a level outside [0, n_levels): the per-level tables above
    would wrap a negative one and fail on a level past the end."""
    if len(levels) and not (levels.min() >= 0 and levels.max() < n_levels):
        bad = levels[(levels < 0) | (levels >= n_levels)][0]
        raise InvalidInputError(f"fidelity level {bad} outside the GP's levels "
                                f"0..{n_levels - 1}")


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorState:
    """Immutable GP posterior snapshot.

    Stores the training inputs, the target standardization, the Cholesky
    factor of the noisy training covariance, and the precomputed weight
    vector.  Safe to share across parallel readers.
    """

    train_points: np.ndarray
    train_levels: np.ndarray
    y_mean: float
    y_std: float
    gamma: float
    hyper: GpHyperparams
    chol: np.ndarray
    alpha: np.ndarray
    extra_jitter: float = 0.0

    @property
    def gamma_norm(self) -> float:
        return (self.gamma - self.y_mean) / self.y_std

    # Normalized-scale queries; public accessors de-normalize.

    def query(self, points: np.ndarray, levels: np.ndarray):
        """Normalized posterior mean, variance and whitened cross-kernel
        V = L^{-1} K(train, x) of one tile of queries: every posterior
        quantity is read through here.  The prior is the posterior of zero
        training rows, whose V has zero rows."""
        _check_levels(levels, self.hyper.n_levels)
        Kq = mf_kernel_matrix(points, levels, self.train_points, self.train_levels,
                              self.hyper)
        mu = Kq @ self.alpha
        # Kq.T is Fortran-ordered, so the solve overwrites it in place
        V = solve_triangular(self.chol, Kq.T, lower=True, overwrite_b=True)
        var = np.maximum(prior_variances(levels, self.hyper)
                         - np.einsum("ij,ij->j", V, V), 0.0)
        return mu, var, V

    def mean_var_norm(self, points: np.ndarray, levels: np.ndarray):
        """Normalized posterior mean and variance, ``_QUERY_TILE`` query rows
        at a time: the cross-kernel and its triangular solve never exceed
        one tile of rows, whatever the number of queries."""
        mu = np.empty(len(levels))
        var = np.empty(len(levels))
        for i0 in range(0, len(levels), _QUERY_TILE):
            rows = slice(i0, i0 + _QUERY_TILE)
            # V is dropped with the tuple, before the next tile allocates its own
            mu[rows], var[rows] = self.query(points[rows], levels[rows])[:2]
        return mu, var

    def cross_cov_norm(self, pa, la, pb, lb) -> np.ndarray:
        Va = self.query(pa, la)[2]
        Vb = self.query(pb, lb)[2]
        return mf_kernel_matrix(pa, la, pb, lb, self.hyper) - Va.T @ Vb


def _solve_chol(K_noisy: np.ndarray, scale: float, ladder=_JITTER_LADDER,
                what: str = "training covariance"):
    """The one Cholesky rescue: the lower factor of K_noisy + extra * scale * I
    at the first ``extra`` in ``ladder`` that factorizes, and that jitter, or a
    NumericalError naming ``what`` and the last rung.  ``fit_posterior`` and
    the MLL's fallback take ``_JITTER_LADDER`` and the signal variance,
    ``acquisition_J`` (0, 1e-10) and max(signal variance, 1)."""
    for extra in ladder:
        try:
            L = cholesky(K_noisy + extra * scale * np.eye(len(K_noisy)), lower=True)
            return L, extra * scale
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(f"{what} is not positive definite even with jitter "
                         f"{ladder[-1]:g} * {scale:.6g}")


def fit_posterior(pool: EmbeddingPool, log: EvaluationLog, hyper: GpHyperparams,
                  gamma: float) -> PosteriorState:
    """Standardize targets and factorize the noisy training covariance.

    An empty log yields the prior: the posterior of zero training rows, with
    a (0, 0) Cholesky factor and an empty weight vector, so every query
    returns zero mean and the kernel's prior variance.
    """
    pts, lvls = gather_points(pool, log.inputs)
    _check_levels(lvls, hyper.n_levels)
    y_mean, y_std = log.normalization()
    y_norm = (log.values - y_mean) / y_std
    K = mf_kernel_matrix(pts, lvls, pts, lvls, hyper)
    K[np.diag_indices_from(K)] += noise_variances(lvls, hyper)
    L, extra = _solve_chol(K, hyper.signal_var)
    alpha = cho_solve((L, True), y_norm)
    return PosteriorState(pts, lvls, y_mean, y_std, float(gamma), hyper, L, alpha,
                          extra)


def posterior_mean_var(state: PosteriorState, points: np.ndarray, levels: np.ndarray):
    """Posterior mean and variance in original target units."""
    points = np.asarray(points, dtype=np.float64)
    mu, var = state.mean_var_norm(points, np.asarray(levels, dtype=np.intp))
    return mu * state.y_std + state.y_mean, var * state.y_std**2


# ---------------------------------------------------------------------------
# Marginal likelihood and training
# ---------------------------------------------------------------------------


def _matern_pairs(D: np.ndarray, ls: np.ndarray, sig: float):
    """Matern-5/2 values k = sig (1 + sqrt5 r + 5 r^2 / 3) e^{-sqrt5 r} and
    slopes w = (5/3) sig (1 + sqrt5 r) e^{-sqrt5 r} on packed pairs, from their
    squared coordinate differences ``D`` (d, P): r^2 = (1 / ls^2) @ D.  The
    log-lengthscale derivative of k is w (x_i - x_k)_j^2 / ls_j^2."""
    r2 = (1.0 / (ls * ls)) @ D
    sr = np.sqrt(r2)
    sr *= SQRT5
    e = np.negative(sr)
    np.exp(e, out=e)
    e *= sig
    sr += 1.0
    k = np.multiply(r2, 5.0 / 3.0, out=r2)
    k += sr
    k *= e
    w = np.multiply(sr, e, out=sr)
    w *= 5.0 / 3.0
    return k, w


class _MllWork:
    """What the MLL evaluations of one training call share: the standardized
    targets, the squared coordinate differences ``D`` (d, P) of the observation
    pairs i < k in row-major upper-triangle order, and the Fortran-ordered n x n
    matrix LAPACK works on in place.  Pairs land in its upper triangle; its
    lower one stays zero.  ``levels[l]`` holds that level's Matern block: the
    indices of the observations it covers, the positions of its pairs among
    all pairs, and their columns of ``D`` (the base block covers everything;
    level l >= 1 only its own observations)."""

    def __init__(self, pool: EmbeddingPool, log: EvaluationLog, n_levels: int):
        self.inputs, self.values = log.inputs.copy(), log.values.copy()
        self.n_levels = n_levels
        self.level_ids = np.arange(n_levels)
        pts, self.lvls = gather_points(pool, log.inputs)
        _check_levels(self.lvls, n_levels)
        y_mean, y_std = log.normalization()
        self.y = (log.values - y_mean) / y_std
        n = len(pts)
        I, J = np.triu_indices(n, 1)
        self.flat = I + n * J  # (i, k) in K's column-major storage
        self.D = np.square(pts[I] - pts[J]).T.copy()
        self.levels = [(slice(None), slice(None), self.D)]
        for l in range(1, n_levels):
            mask = self.lvls == l
            pos = np.flatnonzero(mask[I] & mask[J])
            self.levels.append((np.flatnonzero(mask), pos, self.D[:, pos]))
        self.K = np.zeros((n, n), order="F")
        self.K_flat = self.K.reshape(-1, order="F")

    def fits(self, log: EvaluationLog, hyper: GpHyperparams) -> bool:
        return (hyper.n_levels == self.n_levels and np.array_equal(log.inputs, self.inputs)
                and np.array_equal(log.values, self.values))


def marginal_log_likelihood(pool: EmbeddingPool, log: EvaluationLog,
                            hyper: GpHyperparams, *, work: _MllWork | None = None):
    """Gaussian MLL of the standardized targets and its log-space gradient.

    Gradient entries follow ``GpHyperparams.to_vector()`` order and use the
    closed-form trace identity d = 0.5 * M : dK with M = a a^T - K^{-1}
    (K^{-1} from LAPACK potri, then the rank-one update dsyr, both in K's
    upper triangle).  K, K^{-1} and every dK are symmetric, so the
    identity is summed over the packed pairs i < k plus the diagonal:
    M : dK = 2 Mp . dKp + diag(M) . diag(dK) with Mp = a_i a_k - (K^{-1})_ik.
    Each Matern block (the base one over all pairs, level l >= 1's over its
    own) contributes, with w its slope and D the pairs' squared differences,
    2 (D @ (Mp w))_j / ls_j^2 for log ls_j and 2 Mp . k + sig * tr(M_block)
    for log sig; the noise and jitter entries are the variance times a trace
    of M.  K is factorized by potrf in place; only when that fails does
    ``_solve_chol``'s jitter ladder rescue it.  ``work`` is the workspace of
    ``train_hyperparameters``, built for this log and level count; without it
    each call builds its own.
    """
    if len(log) < 2:
        raise InvalidInputError("marginal likelihood needs at least 2 observations")
    if work is None:
        work = _MllWork(pool, log, hyper.n_levels)
    elif not work.fits(log, hyper):
        raise InvalidInputError("MLL workspace was built for another log or level count")
    y, K, K_flat = work.y, work.K, work.K_flat
    n = len(y)
    diag = K_flat[::n + 1]  # K's, then the factor's after potrf, -M's after dsyr
    lss = [hyper.lengthscales, *hyper.fid_lengthscales]
    sigs = [hyper.signal_var, *hyper.fid_signal_var]
    parts = [_matern_pairs(D, ls, sig) for (_, _, D), ls, sig in zip(work.levels, lss, sigs)]
    k_sum = parts[0][0].copy()
    for (_, pos, _), (k, _) in zip(work.levels[1:], parts[1:]):
        k_sum[pos] += k
    # K's diagonal takes one value per level
    prior_noise = (prior_variances(work.level_ids, hyper)
                   + noise_variances(work.level_ids, hyper))[work.lvls]
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
    grad = np.empty(hyper.n_params)
    p = 0
    for l, ((obs, pos, D), (k, w), ls, sig) in enumerate(zip(work.levels, parts, lss, sigs)):
        trace = M_diag[obs].sum()
        Mp_l = Mp[pos]
        d = ls.size
        np.divide(2.0 * (D @ (Mp_l * w)), ls * ls, out=grad[p:p + d])
        grad[p + d] = 2.0 * float(Mp_l @ k) + sig * trace
        p += d + 1
        if l:
            grad[p] = hyper.fid_noise_var[l - 1] * trace
            p += 1
    grad[p] = hyper.jitter * M_diag.sum()
    grad *= 0.5
    return mll, grad


# Box constraints on the log parameters during training.  Lengthscale bounds
# are factors of the per-dimension pool spread; with a handful of
# observations the unconstrained MLL routinely drifts to near-flat kernels
# whose overconfident extrapolation poisons the failure probabilities, so
# the optimizer projects onto these intervals after every step.
_LENGTHSCALE_FACTOR_BOUNDS = (0.05, 2.0)
_VAR_BOUNDS = (1e-6, 1e3)
_JITTER_BOUNDS = (1e-10, 1e-1)


def _log_bounds(pool: EmbeddingPool, template: GpHyperparams):
    """The training box's lower and upper corners in ``to_vector`` order."""
    scale = GpHyperparams.defaults(pool).lengthscales
    n_low = template.fid_signal_var.size
    return tuple(GpHyperparams(f * scale, v, np.tile(f * scale, (n_low, 1)),
                               np.full(n_low, v), np.full(n_low, v), j).to_vector()
                 for f, v, j in zip(_LENGTHSCALE_FACTOR_BOUNDS, _VAR_BOUNDS, _JITTER_BOUNDS))


def train_hyperparameters(pool: EmbeddingPool, log: EvaluationLog,
                          init: GpHyperparams, iters: int) -> GpHyperparams:
    """Projected Adam ascent on the MLL in log space, ``iters`` steps of size
    0.05; returns the best iterate (``init`` itself when iters = 0)."""
    if len(log) < 2:
        raise InvalidInputError("training needs at least 2 observations")
    if iters < 0:
        raise InvalidInputError(f"training iters must be >= 0, got {iters}")
    if iters == 0:
        return init
    lo, hi = _log_bounds(pool, init)
    theta = np.clip(init.to_vector(), lo, hi)  # every iterate lives in the box
    best_theta = theta.copy()
    best_mll = -np.inf
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    work = _MllWork(pool, log, init.n_levels)
    for it in range(iters + 1):
        mll, grad = marginal_log_likelihood(pool, log, init.from_vector(theta), work=work)
        if mll > best_mll:
            best_mll = mll
            best_theta = theta.copy()
        if it == iters:
            break
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        mh = m / (1.0 - b1 ** (it + 1))
        vh = v / (1.0 - b2 ** (it + 1))
        theta = np.clip(theta + lr * mh / (np.sqrt(vh) + eps), lo, hi)
    return init.from_vector(best_theta)
