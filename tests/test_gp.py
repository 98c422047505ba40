import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from rare_sampler import (EmbeddingPool, EvaluationLog, GpHyperparams,
                          InvalidInputError, NumericalError, failure_prob, fit_posterior,
                          marginal_log_likelihood, posterior_mean_var, train_hyperparameters)
from rare_sampler import gp
from rare_sampler.gp import (SQRT5, _ROW_BLOCK, _MllWork, matern25_matrix, mf_kernel_matrix,
                             noise_variances, prior_variances)

from helpers import (dense_mll_reference, dense_posterior_oracle, hyper_from_text,
                     matern25_kernel, multifidelity_kernel, posterior_cross_cov,
                     random_problem, reference_from_vector, reference_log_bounds,
                     reference_marginal_log_likelihood, reference_mean_var_norm,
                     reference_to_vector)


def leveled_problem(level_counts, dim=2, seed=0):
    """A random pool, hyperparameters and a log with level_counts[l]
    observations at level l, in shuffled level order."""
    rng = np.random.default_rng(seed + sum(level_counts))
    n_levels = len(level_counts)
    pool, _, hyper, _ = random_problem(rng, n_points=40, dim=dim, n_train=0,
                                       n_levels=n_levels)
    log = EvaluationLog()
    points = rng.choice(pool.n_points, size=sum(level_counts), replace=False)
    levels = rng.permutation(np.repeat(np.arange(n_levels), level_counts))
    for i, lvl in zip(points, levels):
        log.append((int(i), int(lvl)), float(rng.standard_normal()), 1)
    return pool, log, hyper


def record_failed_rungs(monkeypatch):
    """Make every Cholesky of ``_solve_chol`` fail; the returned list collects
    the jitter each attempt added, read off the first diagonal entry."""
    diags, tried = [], []

    def singular(A, lower):
        diags.append(A[0, 0])
        tried.append(A[0, 0] - diags[0])
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(gp, "cholesky", singular)
    return tried


def unit_hyper(d=2, n_levels=1, **kw):
    args = dict(
        lengthscales=np.ones(d),
        signal_var=1.0,
        fid_lengthscales=np.ones((n_levels - 1, d)),
        fid_signal_var=np.full(n_levels - 1, 0.5),
        fid_noise_var=np.full(n_levels - 1, 0.01),
        jitter=1e-6,
    )
    args.update(kw)
    return GpHyperparams(**args)


class TestMaternKernel:
    def test_zero_distance_is_signal_variance(self):
        h = unit_hyper()
        assert matern25_kernel([0.3, -1.2], [0.3, -1.2], h) == 1.0

    def test_unit_scaled_distance_closed_form(self):
        # (1 + sqrt5 + 5/3) * exp(-sqrt5) at r = 1
        h = unit_hyper()
        val = matern25_kernel([0.0, 0.0], [1.0, 0.0], h)
        assert val == pytest.approx(0.5239941088318203, abs=1e-14)

    def test_long_range_decay(self):
        h = unit_hyper()
        assert matern25_kernel([0.0, 0.0], [50.0, 0.0], h) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            matern25_kernel([0.0], [0.0, 0.0], unit_hyper())

    def test_symmetry_and_ard(self):
        rng = np.random.default_rng(0)
        h = unit_hyper(lengthscales=np.array([0.5, 3.0]))
        for _ in range(50):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            assert matern25_kernel(a, b, h) == matern25_kernel(b, a, h)

    def test_psd_with_jitter(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            pts = rng.standard_normal((20, 3))
            K = matern25_matrix(pts, pts, np.array([1.0, 0.7, 2.0]), 1.3)
            np.linalg.cholesky(K + 1e-10 * np.eye(20))


class TestBlockedMatern:
    """``matern25_matrix`` finishes its output ``_ROW_BLOCK`` rows at a time."""

    @pytest.mark.parametrize("m", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                   2 * _ROW_BLOCK + 3])
    def test_matches_pointwise_kernel_and_whole_matrix_formula(self, m):
        rng = np.random.default_rng(m)
        h = unit_hyper(d=3, lengthscales=np.array([0.6, 1.0, 2.5]), signal_var=1.7)
        A = rng.standard_normal((m, 3))
        B = np.vstack([rng.standard_normal((4, 3)), A[:2]])  # zero distances too
        K = matern25_matrix(A, B, h.lengthscales, h.signal_var)
        assert K.shape == (m, len(B))
        ref = np.array([[matern25_kernel(a, b, h) for b in B] for a in A]).reshape(K.shape)
        np.testing.assert_allclose(K, ref, rtol=1e-12, atol=1e-12)
        # bit for bit the one-pass expression over the whole matrix
        a, b = A / h.lengthscales, B / h.lengthscales
        d2 = np.maximum(np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
                        - 2.0 * (a @ b.T), 0.0)
        sr = SQRT5 * np.sqrt(d2)
        np.testing.assert_array_equal(
            K, h.signal_var * (1.0 + sr + sr * sr / 3.0) * np.exp(-sr))

    def test_peak_memory_stays_near_the_output(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((20000, 2)), rng.standard_normal((200, 2))
        tracemalloc.start()
        try:
            K = matern25_matrix(A, B, np.array([0.7, 1.3]), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-matrix expression peaked at 5x the output
        assert peak < 1.5 * K.nbytes


class TestMultifidelityKernel:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.pool = EmbeddingPool(rng.standard_normal((10, 2)))
        self.h = unit_hyper(n_levels=2)

    def test_cross_level_drops_discrepancy(self):
        a, b = (3, 0), (3, 1)
        base = matern25_kernel(self.pool.points[3], self.pool.points[3], self.h)
        assert multifidelity_kernel(a, b, self.pool, self.h) == pytest.approx(base)

    def test_same_level_diagonal_adds_discrepancy_and_noise(self):
        a = (3, 1)
        val = multifidelity_kernel(a, a, self.pool, self.h)
        expected = 1.0 + 0.5 + 0.01 + 1e-6  # base + discrepancy + noise + jitter
        assert val == pytest.approx(expected, rel=1e-12)

    def test_distinct_points_same_level_sum_of_kernels(self):
        a, b = (1, 1), (7, 1)
        x, y = self.pool.points[1], self.pool.points[7]
        base = matern25_kernel(x, y, self.h)
        disc = float(matern25_matrix(x[None], y[None], np.ones(2), 0.5)[0, 0])
        got = multifidelity_kernel(a, b, self.pool, self.h)
        assert got == pytest.approx(base + disc, rel=1e-12)

    def test_symmetric_in_arguments(self):
        a, b = (2, 1), (9, 0)
        assert multifidelity_kernel(a, b, self.pool, self.h) == \
            multifidelity_kernel(b, a, self.pool, self.h)


class TestPosterior:
    def test_single_noiseless_observation_interpolates(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0], [2.0, 1.0]]))
        log = EvaluationLog()
        log.append((0, 0), 1.7, 1)
        state = fit_posterior(pool, log, unit_hyper(), gamma=0.0)
        mu, var = posterior_mean_var(state, pool.points[:1], np.zeros(1, dtype=int))
        assert mu[0] == pytest.approx(1.7, abs=1e-5)
        assert var[0] < 1e-5

    def test_exhausted_jitter_ladder_raises_numerical_error(self, monkeypatch):
        rng = np.random.default_rng(4)
        pool, log, _, _ = random_problem(rng, n_points=10, n_train=6, n_levels=1)
        tried = record_failed_rungs(monkeypatch)
        with pytest.raises(NumericalError, match="^" + re.escape(
                "training covariance is not positive definite even with "
                "jitter 0.01 * 1.5") + "$"):
            fit_posterior(pool, log, unit_hyper(signal_var=1.5), gamma=0.0)
        np.testing.assert_allclose(tried, 1.5 * np.array(gp._JITTER_LADDER), atol=1e-12)

    def test_far_query_returns_prior(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0], [100.0, 100.0]]))
        log = EvaluationLog()
        log.append((0, 0), -0.4, 1)
        state = fit_posterior(pool, log, unit_hyper(), gamma=0.0)
        mu, var = posterior_mean_var(state, pool.points[1:], np.zeros(1, dtype=int))
        # normalized prior mean de-normalizes to the target mean; prior var is k(x,x)
        assert mu[0] == pytest.approx(-0.4, abs=1e-9)
        assert var[0] == pytest.approx(1.0, rel=1e-9)

    def test_empty_log_prior(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0]]))
        state = fit_posterior(pool, EvaluationLog(), unit_hyper(), gamma=0.0)
        mu, var = posterior_mean_var(state, pool.points, np.zeros(1, dtype=int))
        assert mu[0] == 0.0
        assert var[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n_levels", [1, 3])
    def test_empty_log_is_the_zero_row_posterior(self, n_levels):
        # every query runs the general path over zero training rows and
        # returns the prior exactly
        rng = np.random.default_rng(40 + n_levels)
        pool, _, hyper, _ = random_problem(rng, n_points=50, n_train=0, n_levels=n_levels)
        state = fit_posterior(pool, EvaluationLog(), hyper, gamma=0.3)
        assert state.chol.shape == (0, 0) and state.alpha.shape == (0,)
        levels = rng.integers(0, n_levels, 50)
        mu, var = state.mean_var_norm(pool.points, levels)
        np.testing.assert_array_equal(mu, np.zeros(50))
        np.testing.assert_array_equal(var, prior_variances(levels, hyper))
        pa, la, pb, lb = pool.points[:20], levels[:20], pool.points[20:], levels[20:]
        np.testing.assert_array_equal(state.cross_cov_norm(pa, la, pb, lb),
                                      mf_kernel_matrix(pa, la, pb, lb, hyper))
        prior0 = prior_variances(np.zeros(50, dtype=np.intp), hyper)
        np.testing.assert_array_equal(failure_prob(state, pool.points).p,
                                      ndtr(state.gamma_norm / np.sqrt(prior0)))

    @pytest.mark.parametrize("bad", [-1, 2], ids=["negative", "past-the-end"])
    def test_level_outside_the_gp_is_rejected(self, bad):
        # the per-level tables would wrap -1 to the last level; the log row is
        # edited in place, past the check of EvaluationLog.append
        rng = np.random.default_rng(45)
        pool, log, hyper, state = random_problem(rng, n_points=12, n_train=6)
        log.inputs[2, 1] = bad
        for call in (lambda: fit_posterior(pool, log, hyper, gamma=0.0),
                     lambda: marginal_log_likelihood(pool, log, hyper),
                     lambda: posterior_mean_var(state, pool.points[:3], [0, bad, 1])):
            with pytest.raises(InvalidInputError, match=f"^fidelity level .*{bad}"):
                call()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_solve_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pool, log, hyper, state = random_problem(rng, n_points=30, n_train=5)
        queries = rng.choice(30, 10, replace=False)
        q_levels = rng.integers(0, 2, 10)
        mu, var = posterior_mean_var(state, pool.points[queries], q_levels)
        mu_o, var_o = dense_posterior_oracle(pool, log, hyper,
                                             pool.points[queries], q_levels)
        np.testing.assert_allclose(mu, mu_o, atol=1e-8)
        np.testing.assert_allclose(var, var_o, atol=1e-8)

    def test_larger_case_against_oracle(self):
        rng = np.random.default_rng(7)
        pool, log, hyper, state = random_problem(rng, n_points=60, n_train=20)
        q_levels = np.zeros(60, dtype=np.intp)
        mu, var = posterior_mean_var(state, pool.points, q_levels)
        mu_o, var_o = dense_posterior_oracle(pool, log, hyper, pool.points, q_levels)
        np.testing.assert_allclose(mu, mu_o, atol=1e-8)
        np.testing.assert_allclose(var, var_o, atol=1e-8)

    def test_cross_cov_consistency_and_oracle(self):
        rng = np.random.default_rng(3)
        pool, log, hyper, state = random_problem(rng, n_points=25, n_train=6)
        lv0 = np.zeros(25, dtype=np.intp)
        cov = posterior_cross_cov(state, pool.points, lv0, pool.points, lv0)
        _, var = posterior_mean_var(state, pool.points, lv0)
        np.testing.assert_allclose(np.diag(cov), var, atol=1e-10)
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        far = EmbeddingPool(np.array([[500.0, 500.0]]))
        cov_far = posterior_cross_cov(state, far.points, [0], far.points, [0])
        assert cov_far[0, 0] == pytest.approx(hyper.signal_var * state.y_std**2, rel=1e-6)

    def test_interpolation_invariant(self):
        rng = np.random.default_rng(11)
        pool = EmbeddingPool(rng.standard_normal((12, 2)) * 2.0)
        log = EvaluationLog()
        vals = rng.standard_normal(6) * 3.0 + 1.0
        for i, v in enumerate(vals):
            log.append((i, 0), float(v), 1)
        state = fit_posterior(pool, log, unit_hyper(jitter=1e-10), gamma=0.0)
        mu, var = posterior_mean_var(state, pool.points[:6], np.zeros(6, dtype=int))
        assert np.all(np.abs(mu - vals) <= 1e-4 * vals.std())
        assert np.all(var <= 1e-6 * state.hyper.signal_var * state.y_std**2)

    def test_duplicate_input_rejected(self):
        log = EvaluationLog()
        log.append((0, 0), 1.0, 1)
        with pytest.raises(InvalidInputError):
            log.append((0, 0), 2.0, 1)
        log.append((0, 1), 2.0, 1)  # other level is fine


class TestTiledPosterior:
    """``mean_var_norm`` takes the queries ``_QUERY_TILE`` rows at a time; the
    tiles must give the one-pass posterior, and its memory one tile."""

    @pytest.mark.parametrize("n_train", [0, 2, 40])
    @pytest.mark.parametrize("n_levels", [1, 2])
    @pytest.mark.parametrize("n_query", [1, 63, 64, 65, 200])
    def test_tiles_match_one_pass(self, monkeypatch, n_query, n_levels, n_train):
        monkeypatch.setattr(gp, "_QUERY_TILE", 64)
        rng = np.random.default_rng(100 * n_query + 10 * n_levels + n_train)
        _, _, hyper, state = random_problem(rng, n_points=50, n_train=n_train,
                                            n_levels=n_levels, spread=1.5)
        points = 1.5 * rng.standard_normal((n_query, 2))
        levels = rng.integers(0, n_levels, n_query)
        mu, var = state.mean_var_norm(points, levels)
        mu_ref, var_ref = reference_mean_var_norm(state, points, levels)
        if n_query <= 64:
            np.testing.assert_array_equal(mu, mu_ref)
            np.testing.assert_array_equal(var, var_ref)
            return
        # a tile's GEMM may round a kernel entry differently: allow 4 ulp of
        # each sum's scale, |K| |alpha| for the mean and the prior for the variance
        prior = gp.prior_variances(levels, hyper)
        mu_scale = np.zeros(n_query)
        if n_train:
            K = mf_kernel_matrix(points, levels, state.train_points, state.train_levels,
                                 hyper)
            mu_scale = np.abs(K) @ np.abs(state.alpha)
        assert np.all(np.abs(mu - mu_ref) <= 4 * np.spacing(mu_scale))
        assert np.all(np.abs(var - var_ref) <= 4 * np.spacing(prior))

    def test_failure_field_memory_is_one_tile(self):
        rng = np.random.default_rng(31)
        n, n_train = 40_000, 150
        pool = EmbeddingPool(rng.standard_normal((n, 2)))
        log = EvaluationLog()
        rows = rng.choice(n, n_train, replace=False)
        log.append(np.column_stack([rows, np.zeros(n_train, dtype=np.intp)]),
                   rng.standard_normal(n_train), 1)
        state = fit_posterior(pool, log, GpHyperparams.defaults(pool), 0.0)
        tracemalloc.start()
        try:
            field = failure_prob(state, pool.points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.p.shape == (n,)
        # one tile's cross-kernel (solved in place) with its finiteness check
        # and the kernel's scratch, plus under 8 float64 arrays of N (mean,
        # variance, prior, scores, p, h); the untiled field peaked at 97.6 MB
        assert peak < 2 * gp._QUERY_TILE * n_train * 8 + 8 * 8 * n


class TestMarginalLikelihood:
    @pytest.mark.parametrize("n_levels,seed",
                             [pytest.param(2, s, id=str(s)) for s in range(10)]
                             + [pytest.param(3, s, id=f"3levels-{s}") for s in range(10)])
    def test_gradient_matches_finite_differences(self, n_levels, seed):
        rng = np.random.default_rng(100 + seed)
        pool, log, hyper, _ = random_problem(rng, n_points=20, n_train=8, n_levels=n_levels)
        _, grad = marginal_log_likelihood(pool, log, hyper)
        theta = hyper.to_vector()
        h = 1e-5
        for k in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fp, _ = marginal_log_likelihood(pool, log, hyper.from_vector(tp))
            fm, _ = marginal_log_likelihood(pool, log, hyper.from_vector(tm))
            fd = (fp - fm) / (2 * h)
            denom = max(abs(fd), abs(grad[k]), 1e-3)
            assert abs(grad[k] - fd) / denom < 1e-4, f"param {k}"

    @pytest.mark.parametrize("dim", [1, 3, 8])
    @pytest.mark.parametrize("level_counts", [(6, 5), (1, 7), (5, 4, 3), (6, 0, 4), (6, 5, 1)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_matches_dense_reference(self, dim, level_counts):
        # a zero count leaves that level's gradient entries at exactly zero
        pool, log, hyper = leveled_problem(level_counts, dim=dim, seed=10 * dim)
        mll, grad = marginal_log_likelihood(pool, log, hyper)
        ref_mll, ref_grad = dense_mll_reference(pool, log, hyper)
        np.testing.assert_allclose(mll, ref_mll, rtol=1e-9)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9, atol=1e-12)
        for l, count in enumerate(level_counts[1:], start=1):
            if count == 0:
                start = dim + 1 + (l - 1) * (dim + 2)
                np.testing.assert_array_equal(grad[start:start + dim + 2], 0.0)

    def test_failed_factorization_takes_the_jitter_ladder(self, monkeypatch):
        # points 0 and 1 coincide at level 0 and the jitter is far below
        # round-off, so K is singular in floating point and potrf fails.  The
        # repeated point repeats its value, which keeps the targets off K's
        # near-null direction: the rescued K's condition number is about 1e6,
        # and with differing values both computations lose ~1e-5 to it.
        rng = np.random.default_rng(4)
        points = 2.0 * rng.standard_normal((8, 2))
        points[1] = points[0]
        values = rng.standard_normal(8)
        values[1] = values[0]
        pool, log = EmbeddingPool(points), EvaluationLog()
        for i, lvl in enumerate([0, 0, 1, 0, 1, 1, 0, 1]):
            log.append((i, lvl), float(values[i]), 1)
        hyper = unit_hyper(n_levels=2, jitter=1e-20)
        rescues, shipped = [], gp._solve_chol

        def recording(K, signal_var):
            L, extra = shipped(K, signal_var)
            rescues.append(extra)
            return L, extra

        monkeypatch.setattr(gp, "_solve_chol", recording)
        mll, grad = marginal_log_likelihood(pool, log, hyper)
        assert rescues == [1e-6 * hyper.signal_var]
        assert np.isfinite(mll) and np.all(np.isfinite(grad))
        ref_mll, ref_grad = dense_mll_reference(pool, log, hyper, extra=rescues[0])
        np.testing.assert_allclose(mll, ref_mll, rtol=1e-9)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-9)

    def test_exhausted_jitter_ladder_raises_numerical_error(self, monkeypatch):
        rng = np.random.default_rng(4)
        pool, log, _, _ = random_problem(rng, n_points=10, n_train=6, n_levels=1)
        hyper = unit_hyper(signal_var=1.5)
        potrf_calls, tried = [], record_failed_rungs(monkeypatch)

        def failing_potrf(K, **kw):
            potrf_calls.append(K.shape)
            return K, 1

        monkeypatch.setattr(gp, "dpotrf", failing_potrf)
        with pytest.raises(NumericalError, match="^" + re.escape(
                "training covariance is not positive definite even with "
                "jitter 0.01 * 1.5") + "$"):
            marginal_log_likelihood(pool, log, hyper)
        assert potrf_calls == [(6, 6)]
        np.testing.assert_allclose(tried, 1.5 * np.array(gp._JITTER_LADDER), atol=1e-12)

    def test_peak_memory_of_one_workspace_and_call(self):
        rng = np.random.default_rng(0)
        n = 200
        pool, log = EmbeddingPool(rng.standard_normal((n, 2))), EvaluationLog()
        for i in range(n):
            log.append((i, i % 2), float(rng.standard_normal()), 1)
        hyper = unit_hyper(n_levels=2, lengthscales=np.array([0.7, 1.3]))
        tracemalloc.start()
        try:
            marginal_log_likelihood(pool, log, hyper, work=_MllWork(pool, log, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 5.7 n x n matrices measured; dense per-level buffers peaked at 11.3
        assert peak < 7 * n * n * 8

    def test_first_order_consistency(self):
        rng = np.random.default_rng(5)
        pool, log, hyper, _ = random_problem(rng, n_train=6)
        mll0, grad = marginal_log_likelihood(pool, log, hyper)
        k = int(np.argmax(np.abs(grad)))
        theta = hyper.to_vector()
        theta[k] += 1e-4 * np.sign(grad[k])
        mll1, _ = marginal_log_likelihood(pool, log, hyper.from_vector(theta))
        assert mll1 > mll0

    def test_duplicate_targets_finite(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0], [0.01, 0.0], [5.0, 5.0]]))
        log = EvaluationLog()
        for i in range(3):
            log.append((i, 0), 1.0, 1)
        hyper = unit_hyper(jitter=0.5)
        mll, grad = marginal_log_likelihood(pool, log, hyper)
        assert np.isfinite(mll) and np.all(np.isfinite(grad))

    def test_requires_two_observations(self):
        pool = EmbeddingPool(np.zeros((2, 2)))
        log = EvaluationLog()
        log.append((0, 0), 1.0, 1)
        with pytest.raises(InvalidInputError):
            marginal_log_likelihood(pool, log, unit_hyper())


class TestTraining:
    @pytest.mark.parametrize("kwargs,message", [
        (dict(iters=-5), "iters must be >= 0, got -5")])
    def test_out_of_range_options_rejected(self, kwargs, message):
        # negative iters would silently skip training
        rng = np.random.default_rng(8)
        pool, log, hyper, _ = random_problem(rng)
        with pytest.raises(InvalidInputError, match=message):
            train_hyperparameters(pool, log, hyper, **kwargs)

    def test_zero_iterations_returns_init(self):
        rng = np.random.default_rng(8)
        pool, log, hyper, _ = random_problem(rng)
        out = train_hyperparameters(pool, log, hyper, iters=0)
        np.testing.assert_array_equal(out.to_vector(), hyper.to_vector())

    def test_best_iterate_never_worse_than_init(self):
        rng = np.random.default_rng(9)
        pool, log, hyper, _ = random_problem(rng, n_train=10)
        trained = train_hyperparameters(pool, log, hyper, iters=40)
        mll0, _ = marginal_log_likelihood(pool, log, hyper)
        mll1, _ = marginal_log_likelihood(pool, log, trained)
        assert mll1 >= mll0

    def test_recovers_lengthscale_within_factor_three(self):
        rng = np.random.default_rng(10)
        n = 30
        pool = EmbeddingPool(rng.uniform(-2, 2, (n, 1)))
        true = GpHyperparams(np.array([0.5]), 1.0, np.zeros((0, 1)), np.zeros(0),
                             np.zeros(0), 1e-6)
        K = matern25_matrix(pool.points, pool.points, true.lengthscales, 1.0)
        y = np.linalg.cholesky(K + 1e-8 * np.eye(n)) @ rng.standard_normal(n)
        log = EvaluationLog()
        for i in range(n):
            log.append((i, 0), float(y[i]), 1)
        init = GpHyperparams(np.array([2.0]), 1.0, np.zeros((0, 1)), np.zeros(0),
                             np.zeros(0), 1e-4)
        trained = train_hyperparameters(pool, log, init, iters=150)
        assert 0.5 / 3 <= trained.lengthscales[0] <= 0.5 * 3
        assert trained.jitter > 0

    def test_matches_training_on_dense_reference(self, monkeypatch):
        rng = np.random.default_rng(14)
        pool, log, hyper, _ = random_problem(rng, n_points=120, n_train=80)
        iters = 200
        shipped = train_hyperparameters(pool, log, hyper, iters)
        monkeypatch.setattr(gp, "marginal_log_likelihood", dense_mll_reference)
        reference = train_hyperparameters(pool, log, hyper, iters)
        np.testing.assert_allclose(np.exp(shipped.to_vector()),
                                   np.exp(reference.to_vector()), rtol=1e-8)

    def test_one_mll_call_per_step_through_module_global(self, monkeypatch):
        # perfbench/bench_trace.py times training by wrapping this global
        rng = np.random.default_rng(15)
        pool, log, hyper, _ = random_problem(rng, n_train=10)
        calls = []
        shipped = gp.marginal_log_likelihood

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return shipped(*args, **kwargs)

        monkeypatch.setattr(gp, "marginal_log_likelihood", counting)
        train_hyperparameters(pool, log, hyper, iters=7)
        assert len(calls) == 8
        for args, kwargs in calls:
            assert list(kwargs) == ["work"] and len(args) == 3
            assert args[0] is pool and args[1] is log
            assert isinstance(args[2], GpHyperparams)

    @pytest.mark.parametrize("level_counts", [(12,), (9, 8), (7, 6, 5), (8, 0, 6)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_workspace_reuse_is_bitwise_neutral(self, monkeypatch, level_counts):
        pool, log, hyper = leveled_problem(level_counts)
        iters = 30
        reused = train_hyperparameters(pool, log, hyper, iters)
        shipped = gp.marginal_log_likelihood

        def fresh_workspace_each_step(pool, log, hyper, *, work):
            return shipped(pool, log, hyper)

        monkeypatch.setattr(gp, "marginal_log_likelihood", fresh_workspace_each_step)
        fresh = train_hyperparameters(pool, log, hyper, iters)
        np.testing.assert_array_equal(reused.to_vector(), fresh.to_vector())

    def test_workspace_for_another_log_rejected(self):
        pool, log, hyper = leveled_problem((6, 5))
        work = _MllWork(pool, log, hyper.n_levels)
        marginal_log_likelihood(pool, log, hyper, work=work)

        def rebuilt(inputs, values):
            out = EvaluationLog()
            out.append(inputs, values, 1)
            return out

        spare = next(i for i in range(pool.n_points) if (i, 0) not in log)
        longer = rebuilt(np.vstack([log.inputs, [(spare, 0)]]), np.append(log.values, 0.5))
        relevelled = rebuilt(np.column_stack([log.inputs[:, 0], 1 - log.inputs[:, 1]]),
                             log.values)
        revalued = rebuilt(log.inputs, log.values + 1.0)
        for other in (longer, relevelled, revalued):
            with pytest.raises(InvalidInputError, match="workspace"):
                marginal_log_likelihood(pool, other, hyper, work=work)
        three_levels = unit_hyper(n_levels=3)
        with pytest.raises(InvalidInputError, match="workspace"):
            marginal_log_likelihood(pool, log, three_levels, work=work)

    @pytest.mark.parametrize("level_counts", [(14,), (9, 8), (7, 6, 5)],
                             ids=lambda c: "-".join(map(str, c)))
    def test_matches_per_field_decode_and_listed_gradient(self, monkeypatch, level_counts):
        # bitwise against one exp per field and a gradient gathered in a list
        pool, log, hyper = leveled_problem(level_counts)
        iters = 60
        shipped = train_hyperparameters(pool, log, hyper, iters)
        monkeypatch.setattr(gp, "marginal_log_likelihood", reference_marginal_log_likelihood)
        monkeypatch.setattr(GpHyperparams, "from_vector", reference_from_vector)
        reference = train_hyperparameters(pool, log, hyper, iters)
        assert shipped.to_vector().tobytes() == reference.to_vector().tobytes()
        assert shipped.to_text() == reference.to_text()

    def test_positive_parameters_preserved(self):
        rng = np.random.default_rng(12)
        pool, log, hyper, _ = random_problem(rng)
        trained = train_hyperparameters(pool, log, hyper, iters=25)
        assert np.all(np.exp(trained.to_vector()) > 0)


class TestValidation:
    # each array field's last entry, named as hyperparams_batch<k>.txt names it
    FIELDS = {"lengthscales": "lengthscale.1", "fid_lengthscales": "fid2.lengthscale.1",
              "fid_signal_var": "fid2.signal_var", "fid_noise_var": "fid2.noise_var"}

    @staticmethod
    def message(name, bad):
        return f"^{re.escape(f'{name} must be positive and finite, got {float(bad)!r}')}$"

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf],
                             ids=["zero", "negative", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", FIELDS)
    def test_each_field_rejects_non_positive_entries(self, field, bad):
        good = unit_hyper(n_levels=3)
        value = np.array(getattr(good, field), dtype=np.float64)
        value.flat[-1] = bad
        args = {f: getattr(good, f) for f in self.FIELDS}
        args[field] = value
        with pytest.raises(InvalidInputError, match=self.message(self.FIELDS[field], bad)):
            GpHyperparams(signal_var=1.0, jitter=1e-6, **args)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf],
                             ids=["zero", "negative", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["signal_var", "jitter"])
    def test_scalars_reject_non_positive_values(self, field, bad):
        with pytest.raises(InvalidInputError, match=self.message(field, bad)):
            unit_hyper(n_levels=2, **{field: bad})

    @pytest.mark.parametrize("n_levels", [1, 2, 3])
    def test_from_vector_rejects_wrong_length(self, n_levels):
        hyper = unit_hyper(n_levels=n_levels)
        vec = hyper.to_vector()
        for bad in (vec[:-1], np.append(vec, 0.0)):
            with pytest.raises(InvalidInputError, match="wrong length"):
                hyper.from_vector(bad)


class TestSerialization:
    @pytest.mark.parametrize("n_levels", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_log_vector_and_bounds_match_the_per_field_layout(self, dim, n_levels):
        # bitwise, so hyperparams_batch<k>.txt and the training box stay put
        rng = np.random.default_rng(100 * dim + n_levels)
        points = rng.normal(size=(40, dim)) * rng.uniform(0.1, 3.0, dim)
        points[:, -1] = 0.7 if dim > 1 else points[:, -1]   # a zero-spread column
        pool = EmbeddingPool(points)
        hyper = GpHyperparams.defaults(pool, n_levels)
        hyper = hyper.from_vector(rng.normal(size=hyper.n_params))
        assert hyper.to_vector().tobytes() == reference_to_vector(hyper).tobytes()
        for got, want in zip(gp._log_bounds(pool, hyper), reference_log_bounds(pool, hyper)):
            assert got.tobytes() == want.tobytes()

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        _, _, hyper, _ = random_problem(rng, n_levels=3)
        back = hyper_from_text(hyper.to_text())
        np.testing.assert_allclose(back.to_vector(), hyper.to_vector(), rtol=1e-15)

    def test_text_prints_the_values_used(self):
        # exp(log v) != v for this lengthscale, which a bams-mf run trained
        v = 1.8380017921659109
        assert np.exp(np.log(v)) != v
        pool = EmbeddingPool(np.random.default_rng(15).standard_normal((10, 2)))
        hyper = replace(GpHyperparams.defaults(pool, 2), lengthscales=np.array([v, 0.5]))
        text = hyper.to_text()
        assert "lengthscale.0 = 1.8380017921659109\n" in text
        assert hyper_from_text(text).lengthscales[0] == v

    def test_documented_keys_present(self):
        rng = np.random.default_rng(14)
        _, _, hyper, _ = random_problem(rng, dim=2, n_levels=2)
        text = hyper.to_text()
        for key in ("lengthscale.0", "lengthscale.1", "signal_var",
                    "fid1.lengthscale.0", "fid1.signal_var", "fid1.noise_var",
                    "jitter"):
            assert f"{key} = " in text

    def test_malformed_text_rejected(self):
        with pytest.raises(InvalidInputError):
            hyper_from_text("signal_var 1.0\n")
