"""Normal and bivariate-normal numerics, failure probabilities, and the
exact estimator variance with its cheap upper bound.

The rate estimator is the pool average of the posterior exceedance
indicator, so its exact variance needs the joint probability that two
Gaussian marginals both fall below the threshold: a bivariate normal CDF,
evaluated here with the Drezner-Wesolowsky Gauss-Legendre scheme in the
double-precision form due to Genz, including the standard reformulation
for |r| close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import InvalidInputError
from .gp import PosteriorState
from .pool import EmbeddingPool

# sigma below this (normalized units) is treated as deterministic
SIGMA_FLOOR = 1e-12

# 20-point Gauss-Legendre rule on (0, 1), halved as in Genz's BVND
_GL_W = np.array([
    0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
    0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
    0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
    0.1527533871307259,
])
_GL_X = np.array([
    0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
    0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
    0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
    0.07652652113349733,
])


def _bvnu(dh: np.ndarray, dk: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Upper orthant probability P(X > dh, Y > dk) for |r| < 1, vectorized."""
    h, k, r = np.broadcast_arrays(dh, dk, r)
    h = np.asarray(h, dtype=np.float64).copy()
    k = np.asarray(k, dtype=np.float64).copy()
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(h)

    lo = np.abs(r) < 0.925
    if np.any(lo):
        hh, kk, rr = h[lo], k[lo], r[lo]
        hk = hh * kk
        hs = 0.5 * (hh * hh + kk * kk)
        asr = np.arcsin(rr)
        bvn = np.zeros_like(hh)
        for w, x in zip(_GL_W, _GL_X):
            for sgn in (-1.0, 1.0):
                sn = np.sin(0.5 * asr * (1.0 + sgn * x))
                bvn += w * np.exp((sn * hk - hs) / (1.0 - sn * sn))
        out[lo] = bvn * asr / (4.0 * np.pi) + ndtr(-hh) * ndtr(-kk)

    hi = ~lo
    if np.any(hi):
        hh, kk, rr = h[hi], k[hi], r[hi]
        neg = rr < 0.0
        kk = np.where(neg, -kk, kk)
        hk = hh * kk
        bvn = np.zeros_like(hh)
        aas = (1.0 - rr) * (1.0 + rr)
        a = np.sqrt(aas)
        bs = (hh - kk) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -0.5 * (bs / aas + hk)
        m = asr > -100.0
        bvn[m] = (a * np.exp(asr) * (1.0 - c * (bs - aas) * (1.0 - d * bs / 5.0) / 3.0
                                     + c * d * aas * aas / 5.0))[m]
        m = -hk < 100.0
        b = np.sqrt(bs)
        spv = np.sqrt(2.0 * np.pi) * ndtr(-b / a)
        bvn[m] -= (np.exp(-0.5 * hk) * spv * b
                   * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))[m]
        a2 = 0.5 * a
        for w, x in zip(_GL_W, _GL_X):
            for sgn in (-1.0, 1.0):
                xs = (a2 * (1.0 + sgn * x)) ** 2
                rs = np.sqrt(1.0 - xs)
                asr = -0.5 * (bs / xs + hk)
                m = asr > -100.0
                sp2 = 1.0 + c * xs * (1.0 + d * xs)
                ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                bvn[m] += (a2 * w * np.exp(asr) * (ep - sp2))[m]
        bvn = -bvn / (2.0 * np.pi)
        pos = ~neg
        res = np.where(pos, bvn + ndtr(-np.maximum(hh, kk)),
                       -bvn + np.maximum(0.0, ndtr(-hh) - ndtr(-kk)))
        out[hi] = res
    return np.clip(out, 0.0, 1.0)


def bivariate_normal_cdf(a, b, r):
    """P(X <= a, Y <= b) for standard normals with correlation r.

    Exact limit formulas are used at r = +-1; |r| > 1 is rejected.
    """
    a_arr, b_arr, r_arr = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64),
        np.asarray(b, dtype=np.float64),
        np.asarray(r, dtype=np.float64),
    )
    if np.any(np.abs(r_arr) > 1.0):
        raise InvalidInputError("correlation must lie in [-1, 1]")
    out = np.empty(a_arr.shape, dtype=np.float64)
    one = np.abs(r_arr) == 1.0
    if np.any(one):
        pos = one & (r_arr > 0)
        out[pos] = ndtr(np.minimum(a_arr, b_arr))[pos]
        neg = one & (r_arr < 0)
        out[neg] = np.maximum(0.0, ndtr(a_arr) + ndtr(b_arr) - 1.0)[neg]
    rest = ~one
    if np.any(rest):
        out[rest] = _bvnu(-a_arr[rest], -b_arr[rest], r_arr[rest])
    if np.ndim(a) == 0 and np.ndim(b) == 0 and np.ndim(r) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Failure field and estimator variance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailureField:
    """Per-point failure probability p and Bernoulli point variance p(1-p)."""

    p: np.ndarray
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.size and (p.min() < 0.0 or p.max() > 1.0):
            raise InvalidInputError("failure probabilities must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "h", p * (1.0 - p))


def _threshold_scores(state: PosteriorState, points: np.ndarray):
    """Normalized (gamma - mu)/sigma plus a mask of deterministic points."""
    levels = np.zeros(len(points), dtype=np.intp)
    mu, var = state.mean_var_norm(points, levels)
    sigma = np.sqrt(var)
    det = sigma < SIGMA_FLOOR
    s = np.empty_like(mu)
    s[~det] = (state.gamma_norm - mu[~det]) / sigma[~det]
    s[det] = np.where(state.gamma_norm - mu[det] >= 0.0, np.inf, -np.inf)
    return s, sigma, det


def failure_prob(state: PosteriorState, points: np.ndarray) -> FailureField:
    """Level-0 failure probabilities of the posterior at the given points."""
    s, _, _ = _threshold_scores(state, np.asarray(points, dtype=np.float64))
    return FailureField(p=ndtr(s))


def variance_upper_bound(field: FailureField) -> float:
    """Average point variance: the cheap bound on the estimator variance."""
    if field.p.size == 0:
        raise InvalidInputError("failure field is empty")
    return float(field.h.mean())


def estimator_variance_exact(state: PosteriorState, pool: EmbeddingPool) -> float:
    """Exact variance of the pool-average exceedance estimator.

    O(N^2) in bivariate normal CDF evaluations; intended for small pools.
    Pairs involving a deterministic point contribute zero covariance.
    """
    pts = pool.points
    n = pool.n_points
    s, sigma, det = _threshold_scores(state, pts)
    p = ndtr(s)
    h = p * (1.0 - p)
    total = float(h.sum())
    live = np.flatnonzero(~det)
    if live.size >= 2:
        levels = np.zeros(live.size, dtype=np.intp)
        cov = state.cross_cov_norm(pts[live], levels, pts[live], levels)
        iu, ju = np.triu_indices(live.size, k=1)
        rho = cov[iu, ju] / (sigma[live][iu] * sigma[live][ju])
        rho = np.clip(rho, -1.0, 1.0)
        joint = bivariate_normal_cdf(s[live][iu], s[live][ju], rho)
        total += 2.0 * float(np.sum(joint - p[live][iu] * p[live][ju]))
    return total / float(n * n)
