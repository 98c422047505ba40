"""Normal and bivariate-normal numerics, failure probabilities, and the
exact estimator variance with its cheap upper bound.

The rate estimator is the pool average of the posterior exceedance
indicator, so its exact variance needs the joint probability that two
Gaussian marginals both fall below the threshold: a bivariate normal CDF,
computed from Owen's T (``scipy.special.owens_t``), as the acquisition is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, owens_t

from .errors import InvalidInputError
from .gp import PosteriorState
from .pool import EmbeddingPool

# sigma below this (normalized units) is treated as deterministic
SIGMA_FLOOR = 1e-12


def bivariate_normal_cdf(a, b, r):
    """P(X <= a, Y <= b) for standard normals with correlation r.

    Owen's identity, with c = sqrt(1 - r^2) and delta = 1/2 iff exactly one of
    a, b is negative: Phi(a)/2 + Phi(b)/2 - T(a, (b - r a)/(a c))
    - T(b, (a - r b)/(b c)) - delta.  Exact limits at r = +-1; |r| > 1 is rejected.
    """
    a_arr, b_arr, r_arr = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (a, b, r)))
    if np.any(np.abs(r_arr) > 1.0):
        raise InvalidInputError("correlation must lie in [-1, 1]")
    out = np.empty(a_arr.shape, dtype=np.float64)
    one = np.abs(r_arr) == 1.0
    pos, neg, rest = one & (r_arr > 0), one & (r_arr < 0), ~one
    out[pos] = ndtr(np.minimum(a_arr[pos], b_arr[pos]))
    out[neg] = np.maximum(0.0, ndtr(a_arr[neg]) + ndtr(b_arr[neg]) - 1.0)
    h, k, rho = a_arr[rest], b_arr[rest], r_arr[rest]
    c = np.sqrt((1.0 - rho) * (1.0 + rho))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_h, a_k = (k - rho * h) / (h * c), (h - rho * k) / (k * c)
    # T(+-inf, a) = 0; T(0, a) = atan(a)/(2 pi), so a zero argument takes
    # a = sign(other) inf, or (1 - rho)/c when both are zero
    both = (h == 0.0) & (k == 0.0)
    a_h = np.where(h == 0.0, np.copysign(np.inf, k), a_h)
    a_k = np.where(k == 0.0, np.copysign(np.inf, h), a_k)
    a_h[both] = a_k[both] = ((1.0 - rho) / c)[both]
    a_h[np.isinf(h)] = a_k[np.isinf(k)] = 0.0
    lo, hi = np.minimum(h, k), np.maximum(h, k)
    # delta = 1/2 enters as Phi(hi)/2 - 1/2 = -Phi(-hi)/2, exact in the far tail
    phi_hi = np.where((lo < 0.0) & (hi >= 0.0), -ndtr(-hi), ndtr(hi))
    out[rest] = np.clip(0.5 * ndtr(lo) + 0.5 * phi_hi - owens_t(h, a_h)
                        - owens_t(k, a_k), 0.0, 1.0)
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
        # NaN compares false, so it is rejected too
        if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
            raise InvalidInputError("failure probabilities must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "h", p * (1.0 - p))


def threshold_scores(state: PosteriorState, mu: np.ndarray, var: np.ndarray):
    """Threshold scores s = (gamma - mu) / sigma of normalized posterior means
    and variances, and the mask of live inputs.  An input with sigma below
    SIGMA_FLOOR is deterministic: it scores +inf if mu <= gamma, else -inf."""
    sigma = np.sqrt(var)
    live = sigma >= SIGMA_FLOOR
    margin = state.gamma_norm - mu
    s = np.where(margin >= 0.0, np.inf, -np.inf)
    s[live] = margin[live] / sigma[live]
    return s, live


def failure_prob(state: PosteriorState, points: np.ndarray) -> FailureField:
    """Level-0 failure probabilities of the posterior at the given points."""
    points = np.asarray(points, dtype=np.float64)
    mu, var = state.mean_var_norm(points, np.zeros(len(points), dtype=np.intp))
    return FailureField(p=ndtr(threshold_scores(state, mu, var)[0]))


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
    n = pool.n_points
    levels = np.zeros(n, dtype=np.intp)
    mu, var = state.mean_var_norm(pool.points, levels)
    s, live = threshold_scores(state, mu, var)
    p = ndtr(s)
    h = p * (1.0 - p)
    pts, lv, sd = pool.points[live], levels[live], np.sqrt(var[live])
    cov = state.cross_cov_norm(pts, lv, pts, lv)
    iu, ju = np.triu_indices(len(lv), k=1)
    rho = np.clip(cov[iu, ju] / (sd[iu] * sd[ju]), -1.0, 1.0)
    joint = bivariate_normal_cdf(s[live][iu], s[live][ju], rho)
    pairs = float(np.sum(joint - p[live][iu] * p[live][ju]))
    return (float(h.sum()) + 2.0 * pairs) / float(n * n)
