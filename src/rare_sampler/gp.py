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

from .errors import InvalidInputError, NumericalError
from .pool import EmbeddingPool, EvaluationLog, gather_points

SQRT5 = np.sqrt(5.0)

# Cholesky rescue: extra diagonal, relative to the signal variance, grows
# tenfold per attempt and gives up at 1e-2.
_JITTER_LADDER = (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


@dataclass(frozen=True)
class GpHyperparams:
    """Kernel hyperparameters for the multifidelity GP.

    All values are strictly positive and are optimized in log space.
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
        for name, arr in (("lengthscales", ls), ("fid_lengthscales", fl),
                          ("fid_signal_var", fs), ("fid_noise_var", fn)):
            if arr.size and not np.all(arr > 0.0):
                raise InvalidInputError(f"{name} must be strictly positive")
        if not (self.signal_var > 0.0 and self.jitter > 0.0):
            raise InvalidInputError("signal_var and jitter must be strictly positive")
        object.__setattr__(self, "lengthscales", ls)
        object.__setattr__(self, "fid_lengthscales", fl)
        object.__setattr__(self, "fid_signal_var", fs)
        object.__setattr__(self, "fid_noise_var", fn)
        object.__setattr__(self, "signal_var", float(self.signal_var))
        object.__setattr__(self, "jitter", float(self.jitter))

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

    def to_vector(self) -> np.ndarray:
        parts = [np.log(self.lengthscales), [np.log(self.signal_var)]]
        for l in range(self.fid_signal_var.size):
            parts.append(np.log(self.fid_lengthscales[l]))
            parts.append([np.log(self.fid_signal_var[l])])
            parts.append([np.log(self.fid_noise_var[l])])
        parts.append([np.log(self.jitter)])
        return np.concatenate([np.atleast_1d(np.asarray(p)) for p in parts])

    def from_vector(self, vec: np.ndarray) -> "GpHyperparams":
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
        vals = np.exp(self.to_vector())
        lines = [f"{k} = {format(v, '.17g')}" for k, v in zip(self.param_names(), vals)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "GpHyperparams":
        kv: dict[str, float] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInputError(f"malformed hyperparameter line: {raw!r}")
            k, v = line.split("=", 1)
            kv[k.strip()] = float(v.strip())
        dims = sorted(int(k.split(".")[1]) for k in kv if k.startswith("lengthscale."))
        if dims != list(range(len(dims))) or not dims and "lengthscale.0" not in kv:
            if not dims:
                raise InvalidInputError("missing lengthscale.<dim> keys")
            raise InvalidInputError("lengthscale dimensions are not dense")
        d = len(dims)
        levels = sorted({int(k[3:].split(".")[0]) for k in kv if k.startswith("fid")})
        n_low = len(levels)
        if levels != list(range(1, n_low + 1)):
            raise InvalidInputError("fidelity levels in file are not dense from 1")
        ls = np.array([kv[f"lengthscale.{j}"] for j in range(d)])
        fls = np.array([[kv[f"fid{l}.lengthscale.{j}"] for j in range(d)]
                        for l in range(1, n_low + 1)]).reshape(n_low, d)
        return GpHyperparams(
            lengthscales=ls,
            signal_var=kv["signal_var"],
            fid_lengthscales=fls,
            fid_signal_var=np.array([kv[f"fid{l}.signal_var"] for l in range(1, n_low + 1)]),
            fid_noise_var=np.array([kv[f"fid{l}.noise_var"] for l in range(1, n_low + 1)]),
            jitter=kv["jitter"],
        )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _scaled_sqdist(A: np.ndarray, B: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    a = A / lengthscales
    b = B / lengthscales
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.maximum(d2, 0.0)


def matern25_matrix(A: np.ndarray, B: np.ndarray, lengthscales: np.ndarray,
                    signal_var: float) -> np.ndarray:
    """Matern-5/2 ARD kernel matrix between two point sets."""
    r = np.sqrt(_scaled_sqdist(A, B, lengthscales))
    sr = SQRT5 * r
    return signal_var * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr)


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
    out = np.full(len(levels), hyper.jitter, dtype=np.float64)
    for l in range(1, hyper.n_levels):
        out[levels == l] += hyper.fid_noise_var[l - 1]
    return out


def prior_variances(levels: np.ndarray, hyper: GpHyperparams) -> np.ndarray:
    """Latent prior variance per augmented input (no white noise)."""
    out = np.full(len(levels), hyper.signal_var, dtype=np.float64)
    for l in range(1, hyper.n_levels):
        out[levels == l] += hyper.fid_signal_var[l - 1]
    return out


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


# ---------------------------------------------------------------------------
# Posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorState:
    """Immutable GP posterior snapshot.

    Stores the training inputs, standardized targets, the Cholesky factor of
    the noisy training covariance, and the precomputed weight vector.  Safe
    to share across parallel readers.
    """

    train_points: np.ndarray
    train_levels: np.ndarray
    y_mean: float
    y_std: float
    y_norm: np.ndarray
    gamma: float
    hyper: GpHyperparams
    chol: np.ndarray | None
    alpha: np.ndarray | None
    extra_jitter: float = 0.0

    @property
    def n_train(self) -> int:
        return self.train_points.shape[0]

    @property
    def gamma_norm(self) -> float:
        return (self.gamma - self.y_mean) / self.y_std

    # Normalized-scale queries; public accessors de-normalize.

    def _cross_to_train(self, points: np.ndarray, levels: np.ndarray) -> np.ndarray:
        return mf_kernel_matrix(points, levels, self.train_points, self.train_levels,
                                self.hyper)

    def mean_var_norm(self, points: np.ndarray, levels: np.ndarray):
        prior = prior_variances(levels, self.hyper)
        if self.n_train == 0:
            return np.zeros(len(levels)), prior
        Kq = self._cross_to_train(points, levels)
        mu = Kq @ self.alpha
        v = solve_triangular(self.chol, Kq.T, lower=True)
        var = np.maximum(prior - np.einsum("ij,ij->j", v, v), 0.0)
        return mu, var

    def cross_cov_norm(self, pa, la, pb, lb) -> np.ndarray:
        K = mf_kernel_matrix(pa, la, pb, lb, self.hyper)
        if self.n_train == 0:
            return K
        Va = solve_triangular(self.chol, self._cross_to_train(pa, la).T, lower=True)
        Vb = solve_triangular(self.chol, self._cross_to_train(pb, lb).T, lower=True)
        return K - Va.T @ Vb


def _solve_chol(K_noisy: np.ndarray, signal_var: float):
    """Cholesky with an escalating diagonal rescue; raises NumericalError at the cap."""
    for extra in _JITTER_LADDER:
        try:
            L = cholesky(K_noisy + extra * signal_var * np.eye(K_noisy.shape[0]),
                         lower=True)
            return L, extra * signal_var
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        "training covariance is not positive definite even with jitter 1e-2 * signal"
    )


def fit_posterior(pool: EmbeddingPool, log: EvaluationLog, hyper: GpHyperparams,
                  gamma: float) -> PosteriorState:
    """Standardize targets and factorize the noisy training covariance.

    An empty log yields the prior (zero mean, kernel variance).
    """
    pts, lvls = gather_points(pool, log.inputs)
    if len(log) and lvls.max() >= hyper.n_levels:
        raise InvalidInputError("log contains levels outside the hyperparameter range")
    y_mean, y_std = log.normalization()
    if len(log) == 0:
        return PosteriorState(pts, lvls, 0.0, 1.0, np.empty(0), float(gamma),
                              hyper, None, None)
    y_norm = (log.value_array - y_mean) / y_std
    K = mf_kernel_matrix(pts, lvls, pts, lvls, hyper)
    K[np.diag_indices_from(K)] += noise_variances(lvls, hyper)
    L, extra = _solve_chol(K, hyper.signal_var)
    alpha = cho_solve((L, True), y_norm)
    return PosteriorState(pts, lvls, y_mean, y_std, y_norm, float(gamma), hyper,
                          L, alpha, extra)


def posterior_mean_var(state: PosteriorState, points: np.ndarray, levels: np.ndarray):
    """Posterior mean and variance in original target units."""
    points = np.asarray(points, dtype=np.float64)
    mu, var = state.mean_var_norm(points, np.asarray(levels, dtype=np.intp))
    return mu * state.y_std + state.y_mean, var * state.y_std**2


def posterior_cross_cov(state: PosteriorState, pa, la, pb, lb) -> np.ndarray:
    """Posterior covariance between two query sets, in original units squared."""
    cov = state.cross_cov_norm(np.asarray(pa, dtype=np.float64), np.asarray(la, dtype=np.intp),
                               np.asarray(pb, dtype=np.float64), np.asarray(lb, dtype=np.intp))
    return cov * state.y_std**2


# ---------------------------------------------------------------------------
# Marginal likelihood and training
# ---------------------------------------------------------------------------


def _kernel_gradients(pts, lvls, hyper: GpHyperparams):
    """Yield (name, dK/dlog-param) in to_vector() order."""
    n = pts.shape[0]

    def matern_parts(P, ls, sig):
        u = ((P[:, None, :] - P[None, :, :]) / ls) ** 2
        r = np.sqrt(np.maximum(u.sum(axis=2), 0.0))
        e = np.exp(-SQRT5 * r)
        k = sig * (1.0 + SQRT5 * r + 5.0 * r * r / 3.0) * e
        # d k / d log lengthscale_j  =  (5/3) sig (1 + sqrt5 r) e^{-sqrt5 r} u_j
        slope = (5.0 / 3.0) * sig * (1.0 + SQRT5 * r) * e
        return k, slope, u

    k0, slope0, u0 = matern_parts(pts, hyper.lengthscales, hyper.signal_var)
    for j in range(hyper.dim):
        yield slope0 * u0[:, :, j]
    yield k0

    for l in range(1, hyper.n_levels):
        mask = np.flatnonzero(lvls == l)
        kl = np.zeros((n, n))
        if mask.size:
            k_s, slope_s, u_s = matern_parts(pts[mask], hyper.fid_lengthscales[l - 1],
                                             hyper.fid_signal_var[l - 1])
        for j in range(hyper.dim):
            g = np.zeros((n, n))
            if mask.size:
                g[np.ix_(mask, mask)] = slope_s * u_s[:, :, j]
            yield g
        if mask.size:
            kl[np.ix_(mask, mask)] = k_s
        yield kl
        g = np.zeros((n, n))
        g[mask, mask] = hyper.fid_noise_var[l - 1]
        yield g

    yield hyper.jitter * np.eye(n)


def marginal_log_likelihood(pool: EmbeddingPool, log: EvaluationLog,
                            hyper: GpHyperparams):
    """Gaussian MLL of the standardized targets and its log-space gradient.

    Gradient entries follow ``GpHyperparams.to_vector()`` order and use the
    closed-form trace identity d = 0.5 * (a a^T - K^{-1}) : dK.
    """
    if len(log) < 2:
        raise InvalidInputError("marginal likelihood needs at least 2 observations")
    pts, lvls = gather_points(pool, log.inputs)
    y_mean, y_std = log.normalization()
    y = (log.value_array - y_mean) / y_std
    n = len(y)
    K = mf_kernel_matrix(pts, lvls, pts, lvls, hyper)
    K[np.diag_indices_from(K)] += noise_variances(lvls, hyper)
    L, extra = _solve_chol(K, hyper.signal_var)
    alpha = cho_solve((L, True), y)
    mll = -0.5 * float(y @ alpha) - float(np.log(np.diag(L)).sum()) \
        - 0.5 * n * np.log(2.0 * np.pi)
    Kinv = cho_solve((L, True), np.eye(n))
    M = np.outer(alpha, alpha) - Kinv
    grad = np.array([0.5 * np.sum(M * dK) for dK in _kernel_gradients(pts, lvls, hyper)])
    return mll, grad


# Box constraints on the log parameters during training.  Lengthscale bounds
# are factors of the per-dimension pool spread; with a handful of
# observations the unconstrained MLL routinely drifts to near-flat kernels
# whose overconfident extrapolation poisons the failure probabilities, so
# the optimizer projects onto these intervals after every step.
_LENGTHSCALE_FACTOR_BOUNDS = (0.05, 2.0)
_VAR_BOUNDS = (1e-6, 1e3)
_JITTER_BOUNDS = (1e-10, 1e-1)


@dataclass(frozen=True)
class TrainOptions:
    """Adam schedule for hyperparameter training."""

    lr: float = 0.05
    iters: int = 200


def _log_bounds(pool: EmbeddingPool, template: GpHyperparams):
    scale = pool.points.std(axis=0)
    scale = np.where(scale > 1e-8, scale, 1.0)
    lo_ls = np.log(_LENGTHSCALE_FACTOR_BOUNDS[0] * scale)
    hi_ls = np.log(_LENGTHSCALE_FACTOR_BOUNDS[1] * scale)
    lo_v, hi_v = np.log(_VAR_BOUNDS)
    lo, hi = [lo_ls, [lo_v]], [hi_ls, [hi_v]]
    for _ in range(template.fid_signal_var.size):
        lo += [lo_ls, [lo_v], [lo_v]]
        hi += [hi_ls, [hi_v], [hi_v]]
    lo.append([np.log(_JITTER_BOUNDS[0])])
    hi.append([np.log(_JITTER_BOUNDS[1])])
    return np.concatenate(lo), np.concatenate(hi)


def train_hyperparameters(pool: EmbeddingPool, log: EvaluationLog,
                          init: GpHyperparams, opts: TrainOptions = TrainOptions()
                          ) -> GpHyperparams:
    """Projected Adam ascent on the MLL in log space; returns the best iterate."""
    if len(log) < 2:
        raise InvalidInputError("training needs at least 2 observations")
    if opts.iters == 0:
        return init
    lo, hi = _log_bounds(pool, init)
    theta = np.clip(init.to_vector(), lo, hi)  # every iterate lives in the box
    best_theta = theta.copy()
    best_mll = -np.inf
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for it in range(opts.iters + 1):
        mll, grad = marginal_log_likelihood(pool, log, init.from_vector(theta))
        if mll > best_mll:
            best_mll = mll
            best_theta = theta.copy()
        if it == opts.iters:
            break
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        mh = m / (1.0 - b1 ** (it + 1))
        vh = v / (1.0 - b2 ** (it + 1))
        theta = np.clip(theta + opts.lr * mh / (np.sqrt(vh) + eps), lo, hi)
    return init.from_vector(best_theta)
