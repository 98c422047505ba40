import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from rare_sampler import (AugmentedInput, EmbeddingPool, EvaluationLog,
                          InvalidInputError, bivariate_normal_cdf,
                          estimator_variance_exact, failure_prob, fit_posterior,
                          variance_upper_bound)
from rare_sampler.estimator import FailureField
from rare_sampler.gp import GpHyperparams

from helpers import random_problem, std_normal_cdf


def phi2_dblquad(a, b, r, lim=8.6):
    det = 1.0 - r * r
    def dens(y, x):
        return np.exp(-(x * x - 2 * r * x * y + y * y) / (2 * det)) / (2 * np.pi * np.sqrt(det))
    val, _ = integrate.dblquad(dens, -lim, a, -lim, b, epsabs=1e-11, epsrel=1e-11)
    return val


class TestStdNormalCdf:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_infinities(self):
        assert std_normal_cdf(-np.inf) == 0.0
        assert std_normal_cdf(np.inf) == 1.0

    def test_quantile_value(self):
        assert std_normal_cdf(1.6449) == pytest.approx(0.95, abs=1e-4)

    def test_reflection(self):
        z = np.linspace(-6, 6, 201)
        np.testing.assert_allclose(std_normal_cdf(-z), 1.0 - std_normal_cdf(z),
                                   atol=1e-15)

    def test_monotone(self):
        z = np.linspace(-10, 10, 1001)
        assert np.all(np.diff(std_normal_cdf(z)) >= 0)


class TestBivariateNormalCdf:
    def test_independence(self):
        assert bivariate_normal_cdf(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_asin_closed_form(self):
        # Phi2(0, 0, r) = 1/4 + asin(r) / (2 pi)
        for r in (-0.95, -0.5, 0.0, 0.3, 0.5, 0.9, 0.99):
            expected = 0.25 + np.arcsin(r) / (2 * np.pi)
            assert bivariate_normal_cdf(0.0, 0.0, r) == pytest.approx(expected, abs=1e-7)

    def test_perfect_correlation_limits(self):
        assert bivariate_normal_cdf(0.7, 1.5, 1.0) == pytest.approx(
            std_normal_cdf(0.7), abs=1e-14)
        assert bivariate_normal_cdf(0.5, 0.5, -1.0) == pytest.approx(
            2 * std_normal_cdf(0.5) - 1.0, abs=1e-14)
        assert bivariate_normal_cdf(-1.0, -1.0, -1.0) == 0.0

    def test_out_of_range_correlation_rejected(self):
        with pytest.raises(InvalidInputError):
            bivariate_normal_cdf(0.0, 0.0, 1.01)

    def test_against_adaptive_quadrature(self):
        rng = np.random.default_rng(17)
        cases = [(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-0.99, 0.99))
                 for _ in range(20)]
        cases += [(0.5, -0.7, 0.0), (1.2, 0.3, 0.99), (-0.4, 0.9, -0.99)]
        for a, b, r in cases:
            assert bivariate_normal_cdf(a, b, r) == pytest.approx(
                phi2_dblquad(a, b, r), abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(18)
        a, b = rng.uniform(-4, 4, 300), rng.uniform(-4, 4, 300)
        r = rng.uniform(-1, 1, 300)
        np.testing.assert_allclose(bivariate_normal_cdf(a, b, r),
                                   bivariate_normal_cdf(b, a, r), atol=1e-12)

    def test_monotone_in_both_arguments(self):
        grid = np.linspace(-4, 4, 161)
        for r in (-0.99, -0.6, 0.0, 0.6, 0.99):
            v = bivariate_normal_cdf(grid, 0.8, r)
            assert np.all(np.diff(v) >= -1e-12)
            v = bivariate_normal_cdf(-0.3, grid, r)
            assert np.all(np.diff(v) >= -1e-12)


def asin_form(r):
    """Phi2(0, 0; r) = 1/4 + asin(r) / (2 pi)."""
    return 0.25 + np.arcsin(r) / (2 * np.pi)


def seed0_problem():
    """300 standard-normal points, 15 level-0 observations of |x - (1.5, 1.5)|,
    default hyperparameters, gamma = 0.8."""
    rng = np.random.default_rng(0)
    pool = EmbeddingPool(rng.standard_normal((300, 2)))
    log = EvaluationLog()
    for i in rng.choice(300, 15, replace=False):
        log.append(AugmentedInput(int(i), 0),
                   float(np.linalg.norm(pool.points[i] - 1.5)), 1)
    return pool, fit_posterior(pool, log, GpHyperparams.defaults(pool), gamma=0.8)


class TestOwenTBranches:
    """Zero arguments, opposite-sign tails and broadcasting of the Owen's T form."""

    @pytest.mark.parametrize("k", [-2.3, -0.4, 0.4, 2.3])
    @pytest.mark.parametrize("r", [-0.9, -0.3, 0.0, 0.5, 0.95])
    def test_one_argument_zero(self, k, r):
        want = phi2_dblquad(0.0, k, r)
        assert bivariate_normal_cdf(0.0, k, r) == pytest.approx(want, abs=1e-10)
        assert bivariate_normal_cdf(k, 0.0, r) == pytest.approx(want, abs=1e-10)

    def test_both_arguments_zero(self):
        for r in (-0.999, -0.7, -0.2, 0.0, 0.2, 0.7, 0.999):
            assert bivariate_normal_cdf(0.0, 0.0, r) == pytest.approx(
                asin_form(r), abs=1e-15)
        r = np.linspace(-0.99, 0.99, 41)
        np.testing.assert_allclose(bivariate_normal_cdf(0.0, 0.0, r), asin_form(r),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("r", [-0.6, 0.1, 0.8])
    def test_subnormal_scale_argument(self, r):
        # h = 1e-300 makes h * k underflow; the sign test must still see it
        for k in (-1.1, 0.7):
            assert bivariate_normal_cdf(1e-300, k, r) == pytest.approx(
                phi2_dblquad(0.0, k, r), abs=1e-10)
        for h, k in ((1e-300, -1e-300), (-1e-300, 1e-300), (1e-300, 1e-300)):
            assert bivariate_normal_cdf(h, k, r) == pytest.approx(asin_form(r),
                                                                  abs=1e-15)

    @pytest.mark.parametrize("r", [-0.3, 0.3])
    def test_opposite_sign_tails(self, r):
        # P(X <= -8, Y > 8) < 1e-24 at |r| = 0.3, so Phi2 = Phi(-8) to 1e-24
        for h, k in ((-8.0, 8.0), (8.0, -8.0)):
            v = bivariate_normal_cdf(h, k, r)
            assert v == pytest.approx(ndtr(-8.0), abs=1e-16)
            assert v == pytest.approx(phi2_dblquad(h, k, r), abs=1e-12)

    @pytest.mark.parametrize("h, k", [(-8.0, 8.0), (8.0, -8.0), (-10.0, 10.0)])
    def test_opposite_sign_tails_at_independence(self, h, k):
        # Phi(h) Phi(k) lies far below the 1e-16 spacing of Phi(k) near 1
        assert bivariate_normal_cdf(h, k, 0.0) == pytest.approx(ndtr(h) * ndtr(k),
                                                                rel=1e-12, abs=0.0)

    def test_far_opposite_sign_tail_stays_positive(self):
        v = bivariate_normal_cdf(-10.0, 10.0, 0.5)
        assert v > 0.0
        assert v == pytest.approx(ndtr(-10.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r", [-0.7, 0.0, 0.95])
    def test_infinite_arguments(self, r):
        inf = np.inf
        for k in (-1.3, 0.0, 0.6):
            assert bivariate_normal_cdf(inf, k, r) == pytest.approx(ndtr(k), abs=1e-15)
            assert bivariate_normal_cdf(k, inf, r) == pytest.approx(ndtr(k), abs=1e-15)
            assert bivariate_normal_cdf(-inf, k, r) == 0.0
            assert bivariate_normal_cdf(k, -inf, r) == 0.0
        assert bivariate_normal_cdf(inf, inf, r) == 1.0
        assert bivariate_normal_cdf(-inf, inf, r) == 0.0

    def test_broadcasting(self):
        a = np.array([[-1.5], [0.0], [0.8]])
        r = np.array([-0.5, 0.0, 0.4, 1.0])
        got = bivariate_normal_cdf(a, 0.3, r)
        assert got.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                v = bivariate_normal_cdf(float(a[i, 0]), 0.3, float(r[j]))
                assert type(v) is float
                assert got[i, j] == v
        assert bivariate_normal_cdf(0.2, np.array([0.1, -0.1]), 0.3).shape == (2,)
        assert np.ndim(bivariate_normal_cdf(np.float64(0.2), 0.1, 0.3)) == 0

    @pytest.mark.parametrize("h, k, r", [(-40.0, 40.0, 0.95), (40.0, -40.0, 0.99)])
    def test_far_tail_raises_no_warning(self, h, k, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bivariate_normal_cdf(h, k, r) == 0.0

    @pytest.mark.parametrize("h, k, r", [(0.0, 1.2, 0.3), (-0.8, 0.0, -0.6),
                                         (0.0, 0.0, 0.5), (1e-300, 0.7, 0.2)])
    def test_zero_arguments_raise_no_warning(self, h, k, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = bivariate_normal_cdf(h, k, r)
        assert v == pytest.approx(phi2_dblquad(h, k, r), abs=1e-10)

    def test_exact_variance_raises_no_warning(self):
        pool, state = seed0_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = estimator_variance_exact(state, pool)
        field = failure_prob(state, pool.points)
        assert 0.0 <= v <= variance_upper_bound(field) + 1e-12


class TestFailureProb:
    def test_mean_at_threshold_gives_half(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0]]))
        log = EvaluationLog()
        log.append(AugmentedInput(0, 0), 2.0, 1)
        h = GpHyperparams(np.ones(2), 1.0, np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                          jitter=1.0)  # noisy so sigma > 0 at the point
        state = fit_posterior(pool, log, h, gamma=2.0)
        field = failure_prob(state, pool.points)
        assert field.p[0] == pytest.approx(0.5, abs=1e-12)
        assert field.h[0] == pytest.approx(0.25, abs=1e-12)

    def test_one_sigma_below_threshold(self):
        rng = np.random.default_rng(19)
        pool, log, hyper, state = random_problem(rng, n_points=20, n_train=5)
        mu, var = state.mean_var_norm(pool.points, np.zeros(20, dtype=np.intp))
        gamma_norm = mu[4] + np.sqrt(var[4])  # one sigma above the mean
        gamma = gamma_norm * state.y_std + state.y_mean
        state2 = fit_posterior(pool, log, hyper, gamma)
        field = failure_prob(state2, pool.points)
        assert field.p[4] == pytest.approx(std_normal_cdf(1.0), abs=1e-9)

    def test_evaluated_safe_point_has_zero_probability(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0], [3.0, 3.0]]))
        log = EvaluationLog()
        log.append(AugmentedInput(0, 0), 5.0, 1)
        log.append(AugmentedInput(1, 0), 6.0, 1)
        h = GpHyperparams(np.ones(2), 1.0, np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                          jitter=1e-10)
        state = fit_posterior(pool, log, h, gamma=0.0)
        field = failure_prob(state, pool.points)
        assert field.p[0] < 1e-6

    def test_deterministic_point_limits(self):
        # sigma = 0 exactly: p follows the sign of gamma - mu
        pool = EmbeddingPool(np.array([[0.0, 0.0]]))
        state = fit_posterior(pool, EvaluationLog(),
                              GpHyperparams(np.ones(2), 1e-30, np.zeros((0, 2)),
                                            np.zeros(0), np.zeros(0), 1e-32),
                              gamma=1.0)
        field = failure_prob(state, pool.points)
        assert field.p[0] == 1.0  # gamma - mu = 1 >= 0

    def test_h_identity(self):
        field = FailureField(p=np.array([0.0, 0.2, 0.5, 1.0]))
        np.testing.assert_array_equal(field.h, field.p * (1 - field.p))


class TestEstimatorVariance:
    def test_single_point_equals_point_variance(self):
        rng = np.random.default_rng(20)
        pool, log, hyper, state = random_problem(rng, n_points=1, n_train=1)
        field = failure_prob(state, pool.points)
        assert estimator_variance_exact(state, pool) == pytest.approx(
            float(field.h[0]), abs=1e-12)

    def test_two_identical_points_fully_correlated(self):
        pool = EmbeddingPool(np.array([[0.5, 0.5], [0.5, 0.5]]))
        log = EvaluationLog()
        log.append(AugmentedInput(0, 0), 1.0, 1)
        h = GpHyperparams(np.ones(2), 1.0, np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                          jitter=0.3)
        state = fit_posterior(pool, log, h, gamma=1.0)
        field = failure_prob(state, pool.points)
        # rho = 1 between the two copies: Var = p(1-p), not halved
        assert estimator_variance_exact(state, pool) == pytest.approx(
            float(field.h[0]), abs=1e-9)

    def test_against_monte_carlo_posterior_draws(self):
        rng = np.random.default_rng(21)
        pool, log, hyper, state = random_problem(rng, n_points=30, n_train=8)
        exact = estimator_variance_exact(state, pool)
        lv0 = np.zeros(30, dtype=np.intp)
        mu, _ = state.mean_var_norm(pool.points, lv0)
        cov = state.cross_cov_norm(pool.points, lv0, pool.points, lv0)
        L = np.linalg.cholesky(cov + 1e-10 * np.eye(30))
        draws = mu + rng.standard_normal((100_000, 30)) @ L.T
        p_hats = (draws <= state.gamma_norm).mean(axis=1)
        mc_var = p_hats.var(ddof=1)
        se = mc_var * np.sqrt(2.0 / (len(p_hats) - 1)) * 3  # rough 3-SE band
        assert abs(exact - mc_var) < max(se, 3e-5)

    def test_bounded_by_quarter_and_nonnegative(self):
        rng = np.random.default_rng(22)
        for seed in range(5):
            pool, _, _, state = random_problem(np.random.default_rng(seed),
                                               n_points=15, n_train=4)
            v = estimator_variance_exact(state, pool)
            assert 0.0 <= v <= 0.25


class TestPropositionBound:
    def test_single_point_bound_is_tight(self):
        rng = np.random.default_rng(23)
        pool, _, _, state = random_problem(rng, n_points=1, n_train=1)
        field = failure_prob(state, pool.points)
        assert variance_upper_bound(field) == pytest.approx(
            estimator_variance_exact(state, pool), abs=1e-12)

    def test_all_safe_gives_zero(self):
        field = FailureField(p=np.zeros(10))
        assert variance_upper_bound(field) == 0.0

    def test_bound_dominates_exact_variance(self):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            pool, _, _, state = random_problem(rng, n_points=30,
                                               n_train=int(rng.integers(2, 10)))
            field = failure_prob(state, pool.points)
            assert estimator_variance_exact(state, pool) <= \
                variance_upper_bound(field) + 1e-10

    def test_empty_field_rejected(self):
        with pytest.raises(InvalidInputError):
            variance_upper_bound(FailureField(p=np.empty(0)))
