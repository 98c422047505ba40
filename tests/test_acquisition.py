import numpy as np
import pytest
from scipy.special import ndtr

from rare_sampler import (EmbeddingPool, EvaluationLog, GpHyperparams, InvalidInputError,
                          NumericalError, PendingSet, PosteriorState, acquisition_J,
                          failure_prob, fit_posterior, select_batch,
                          variance_upper_bound)
from rare_sampler import gp
from rare_sampler.acquisition import point_variance_beta
from rare_sampler.estimator import SIGMA_FLOOR, bivariate_normal_cdf

from helpers import (ReferencePendingSet, forward_point_variance, naive_select_batch,
                     random_problem, reference_scaled_rows, selection_arrays,
                     simulate_conditioned_posteriors)


class TestPointVarianceBeta:
    def test_matches_bivariate_normal_form(self):
        # beta(s, t) must equal Phi2(s, -s, corr = t - 1)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.uniform(-4, 4)
            t = rng.uniform(0, 1)
            direct = bivariate_normal_cdf(s, -s, t - 1.0)
            assert point_variance_beta(s, t) == pytest.approx(direct, abs=1e-9)

    def test_limits(self):
        s = np.linspace(-5, 5, 41)
        np.testing.assert_allclose(point_variance_beta(s, 1.0),
                                   ndtr(s) * ndtr(-s), atol=1e-14)
        np.testing.assert_array_equal(point_variance_beta(s, 0.0), np.zeros_like(s))

    def test_monotone_in_that(self):
        t = np.linspace(0, 1, 500)
        for s in (0.0, 1.0, 2.5):
            b = point_variance_beta(s, t)
            assert np.all(np.diff(b) >= -1e-15)
            assert np.all(b <= 0.25 + 1e-12)


class TestForwardPointVariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_empty_pending_equals_point_variance(self, seed):
        rng = np.random.default_rng(seed)
        pool, _, _, state = random_problem(rng, n_points=20, n_train=6)
        field = failure_prob(state, pool.points)
        for i in (0, 5, 19):
            fpv = forward_point_variance(state, pool, (i, 0), [])
            assert fpv == pytest.approx(float(field.h[i]), abs=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_noiseless_self_pending_removes_variance(self, seed):
        rng = np.random.default_rng(100 + seed)
        pool, _, _, state = random_problem(rng, n_points=15, n_train=4,
                                           jitter=1e-300)
        x = (int(rng.integers(15)), 0)
        assert forward_point_variance(state, pool, x, [x]) <= 1e-9

    def test_against_nested_monte_carlo(self):
        # beta is the average of h over future posteriors at the pending sites
        rng = np.random.default_rng(42)
        pool, _, _, state = random_problem(rng, n_points=25, n_train=6)
        pending = [(2, 0), (11, 1), (17, 0)]
        mu_new, cov_new = simulate_conditioned_posteriors(state, pool, pending,
                                                          n_draws=200_000, rng=rng)
        sigma_new = np.sqrt(np.maximum(np.diag(cov_new), 1e-300))
        for i in (0, 5, 20):
            p_draws = ndtr((state.gamma_norm - mu_new[:, i]) / sigma_new[i])
            h_draws = p_draws * (1.0 - p_draws)
            mc = h_draws.mean()
            se = h_draws.std(ddof=1) / np.sqrt(len(h_draws))
            fpv = forward_point_variance(state, pool, (i, 0), pending)
            assert abs(fpv - mc) < max(3 * se, 2e-4), f"point {i}"


class TestAcquisitionJ:
    def test_empty_pending_equals_prop1_bound(self):
        rng = np.random.default_rng(7)
        pool, _, _, state = random_problem(rng, n_points=30, n_train=8)
        targets = [(i, 0) for i in range(30)]
        field = failure_prob(state, pool.points)
        assert acquisition_J(state, pool, [], targets) == pytest.approx(
            variance_upper_bound(field), abs=1e-12)

    def test_empty_pending_is_the_mean_of_beta_at_one(self):
        # the empty pending set has zero rows, so t_hat is exactly 1
        rng = np.random.default_rng(8)
        pool, _, _, state = random_problem(rng, n_points=30, n_train=8)
        targets = np.column_stack([np.arange(30), np.zeros(30, dtype=np.intp)])
        mu, var = state.mean_var_norm(pool.points, targets[:, 1])
        assert np.all(var >= SIGMA_FLOOR**2)
        s = (state.gamma_norm - mu) / np.sqrt(var)
        assert acquisition_J(state, pool, [], targets) == point_variance_beta(s, 1.0).mean()

    def test_all_targets_pending_noiseless_kills_J(self):
        # tolerance reflects Cholesky round-off amplified by the sqrt in beta
        rng = np.random.default_rng(8)
        pool, _, _, state = random_problem(rng, n_points=8, n_train=3, jitter=1e-300)
        targets = [(i, 0) for i in range(8)]
        j_all = acquisition_J(state, pool, targets, targets)
        assert j_all <= 1e-5
        assert j_all <= 1e-3 * acquisition_J(state, pool, [], targets)

    def test_failed_jitter_rescue_raises_numerical_error(self, monkeypatch):
        rng = np.random.default_rng(8)
        pool, _, _, state = random_problem(rng, n_points=8, n_train=3)
        targets = [(i, 0) for i in range(8)]
        calls = []

        def singular(A, lower):
            calls.append(A.shape)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "cholesky", singular)
        with pytest.raises(NumericalError, match="pending-set covariance of 2 inputs"):
            acquisition_J(state, pool, targets[:2], targets)
        assert calls == [(2, 2), (2, 2)]  # the plain attempt, then the one rescue

    def test_no_live_target_gives_positive_zero(self, monkeypatch):
        # a floor above every sd makes every target deterministic: the general
        # path sums beta over zero live columns, which is +0.0
        import rare_sampler.estimator as est
        rng = np.random.default_rng(8)
        pool, _, _, state = random_problem(rng, n_points=8, n_train=3)
        targets = [(i, 0) for i in range(8)]
        monkeypatch.setattr(est, "SIGMA_FLOOR", 1e300)
        j = acquisition_J(state, pool, [(1, 0), (5, 1)], targets)
        assert j == 0.0 and not np.signbit(j)

    def test_no_live_target_still_factorizes_the_pending_set(self, monkeypatch):
        import rare_sampler.estimator as est
        rng = np.random.default_rng(8)
        pool, _, _, state = random_problem(rng, n_points=8, n_train=3)
        targets = [(i, 0) for i in range(8)]
        monkeypatch.setattr(est, "SIGMA_FLOOR", 1e300)

        def singular(A, lower):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "cholesky", singular)
        with pytest.raises(NumericalError, match="pending-set covariance of 2 inputs"):
            acquisition_J(state, pool, targets[:2], targets)

    def test_matches_per_point_computation(self):
        rng = np.random.default_rng(9)
        pool, _, _, state = random_problem(rng, n_points=20, n_train=5)
        targets = [(i, 0) for i in range(20)]
        pending = [(3, 1), (12, 0)]
        per_point = np.mean([forward_point_variance(state, pool, t, pending)
                             for t in targets])
        assert acquisition_J(state, pool, pending, targets) == pytest.approx(
            per_point, abs=1e-12)

    @pytest.mark.parametrize("n_pending", [0, 2])
    def test_one_posterior_query_each_for_targets_and_pending(self, monkeypatch,
                                                                n_pending):
        rng = np.random.default_rng(9)
        pool, _, _, state = random_problem(rng, n_points=20, n_train=5)
        targets = [(i, 0) for i in range(20)]
        pending = [(3, 1), (12, 0)][:n_pending]
        queries = []
        query = PosteriorState.query

        def counted(self, points, levels):
            queries.append(len(levels))
            return query(self, points, levels)

        monkeypatch.setattr(PosteriorState, "query", counted)
        acquisition_J(state, pool, pending, targets)
        assert queries == [20, n_pending]

    @pytest.mark.parametrize("seed", range(15))
    def test_monotone_under_conditioning(self, seed):
        # J(A + {y}) <= J(A): point variance is concave and conditioning shrinks it
        rng = np.random.default_rng(300 + seed)
        pool, _, _, state = random_problem(rng, n_points=15, n_train=4)
        targets = [(i, 0) for i in range(15)]
        pending = []
        for _ in range(4):
            j_before = acquisition_J(state, pool, pending, targets)
            y = (int(rng.integers(15)), int(rng.integers(2)))
            if y in pending:
                continue
            pending.append(y)
            j_after = acquisition_J(state, pool, pending, targets)
            assert j_after <= j_before + 1e-9


class TestSelection:
    def test_single_candidate_selected(self):
        rng = np.random.default_rng(10)
        pool, _, _, state = random_problem(rng, n_points=10, n_train=3)
        targets = [(i, 0) for i in range(10)]
        inputs, _, _ = select_batch(state, pool, [(4, 0)], [1.0], targets,
                                    1.0)
        np.testing.assert_array_equal(inputs, [[4, 0]])

    def test_cheaper_level_wins_on_cost_ratio(self):
        # two-point pool: same point offered at both levels; the cheap level's
        # deltaJ is slightly smaller but its cost advantage dominates
        pool = EmbeddingPool(np.array([[0.0, 0.0], [0.4, 0.0]]))
        hyper = GpHyperparams(np.ones(2), 1.0, np.ones((1, 2)), np.array([0.05]),
                              np.array([0.01]), 1e-8)
        log = EvaluationLog()
        log.append((0, 0), 0.3, 1)
        state = fit_posterior(pool, log, hyper, gamma=0.2)
        targets = [(0, 0), (1, 0)]
        cands = [(1, 0), (1, 1)]
        j0 = acquisition_J(state, pool, [], targets)
        dj = {c: acquisition_J(state, pool, [c], targets) - j0 for c in cands}
        assert dj[cands[0]] < dj[cands[1]] < 0  # level 0 helps more in absolute terms
        assert dj[cands[1]] / 0.1 < dj[cands[0]] / 1.0  # but loses per unit cost
        pending = PendingSet(state, pool, targets, cands, [1.0, 0.1])
        chosen, _ = pending.select_next()
        assert chosen == (1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_recursion_matches_naive_reference(self, seed):
        rng = np.random.default_rng(500 + seed)
        pool, log, hyper, state = random_problem(rng, n_points=25, n_train=6)
        targets = [(i, 0) for i in range(25)]
        cands = [(i, l) for i in range(25) for l in range(2)
                 if (i, l) not in log]
        costs = np.array([1.0 if c[1] == 0 else 0.25 for c in cands])
        fast = select_batch(state, pool, cands, costs, targets, budget=2.0)
        naive = selection_arrays(naive_select_batch(state, pool, cands, costs, targets,
                                                    budget=2.0))
        np.testing.assert_array_equal(fast[0], naive[0])
        np.testing.assert_allclose(fast[1], naive[1], atol=1e-10)

    def test_pruned_and_unpruned_sweeps_agree(self):
        # pruning must be behaviorally invisible: force full evaluation by
        # comparing against a PendingSet whose bound stage keeps everything
        import rare_sampler.acquisition as acq
        rng = np.random.default_rng(11)
        pool, log, hyper, state = random_problem(rng, n_points=40, n_train=8)
        targets = [(i, 0) for i in range(40)]
        cands = [(i, l) for i in range(40) for l in range(2)
                 if (i, l) not in log]
        costs = np.array([1.0 if c[1] == 0 else 0.2 for c in cands])
        fast = select_batch(state, pool, cands, costs, targets, budget=3.0)
        original = acq._BLOCK
        acq._BLOCK = 10**9
        try:
            ref = select_batch(state, pool, cands, costs, targets, budget=3.0)
        finally:
            acq._BLOCK = original
        np.testing.assert_array_equal(fast[0], ref[0])
        np.testing.assert_allclose(fast[1], ref[1], atol=1e-12)

    def test_budget_cost_accounting(self):
        rng = np.random.default_rng(12)
        pool, log, _, state = random_problem(rng, n_points=12, n_train=3)
        targets = [(i, 0) for i in range(12)]
        cands = [(i, 1) for i in range(12)
                 if (i, 1) not in log]
        costs = np.full(len(cands), 0.3)
        _, _, sel_costs = select_batch(state, pool, cands, costs, targets, budget=1.0)
        total = sum(sel_costs.tolist())
        assert total >= 1.0 and total - 0.3 < 1.0  # stops at the crossing pick

    def test_budget_beyond_supply_returns_everything_ordered(self):
        rng = np.random.default_rng(13)
        pool, log, _, state = random_problem(rng, n_points=8, n_train=2)
        targets = [(i, 0) for i in range(8)]
        cands = [(i, 0) for i in range(8)
                 if (i, 0) not in log]
        inputs, _, _ = select_batch(state, pool, cands, np.ones(len(cands)), targets,
                                    budget=100.0)
        assert len(inputs) == len(cands)
        assert sorted(map(tuple, inputs.tolist())) == sorted(cands)

    def test_empty_candidates_give_an_empty_selection(self):
        # an empty candidate set is zero columns: PendingSet accepts it, its
        # first step finds nothing to pick, and select_batch returns a dry queue
        rng = np.random.default_rng(14)
        pool, _, _, state = random_problem(rng, n_points=5, n_train=2)
        targets = [(i, 0) for i in range(5)]
        pending = PendingSet(state, pool, targets, [], [])
        assert pending.candidates.shape == (0, 2) and pending.TCs.shape[1] == 0
        assert pending.select_next() is None
        inputs, delta_j, cost = select_batch(state, pool, [], [], targets, budget=1.0)
        assert inputs.shape == (0, 2) and inputs.dtype == np.intp
        assert delta_j.shape == cost.shape == (0,)

    @pytest.mark.parametrize("budget", [0.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_budget_rejected(self, budget):
        rng = np.random.default_rng(15)
        pool, _, _, state = random_problem(rng, n_points=5, n_train=2)
        targets = [(i, 0) for i in range(5)]
        with pytest.raises(InvalidInputError, match="budget must be positive and finite"):
            select_batch(state, pool, [(0, 1)], [0.1], targets, budget)

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_non_positive_or_non_finite_cost_rejected(self, bad):
        # NaN passes costs <= 0, so the check asks for 0 < cost < inf
        rng = np.random.default_rng(17)
        pool, _, _, state = random_problem(rng, n_points=6, n_train=2)
        targets = [(i, 0) for i in range(6)]
        with pytest.raises(InvalidInputError, match="costs must be positive and finite"):
            PendingSet(state, pool, targets, [(0, 1), (1, 1)],
                       [0.1, bad])

    @pytest.mark.parametrize("targets", [[], np.empty((0, 2), dtype=np.intp)])
    def test_empty_target_set_is_rejected(self, targets):
        # J averages over the targets, so an empty set has no objective
        rng = np.random.default_rng(16)
        pool, _, _, state = random_problem(rng, n_points=6, n_train=2)
        with pytest.raises(InvalidInputError, match="target set is empty"):
            PendingSet(state, pool, targets, [(0, 1)], [0.1])

    def test_target_above_level_0_is_rejected(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.7]]))
        hyper = GpHyperparams(np.ones(2), 1.0, np.ones((1, 2)), np.array([0.05]),
                              np.array([0.01]), 1e-8)
        state = fit_posterior(pool, EvaluationLog(), hyper, gamma=0.2)
        targets = [(0, 0), (2, 1), (1, 0)]
        cands = [(1, 0), (1, 1)]
        with pytest.raises(InvalidInputError, match="level-0 inputs, got level 1"):
            PendingSet(state, pool, targets, cands, [1.0, 0.1])

    def test_candidate_above_the_gp_levels_is_rejected(self):
        # a level-7 candidate of a 2-level GP has no kernel or noise term
        rng = np.random.default_rng(18)
        pool, _, _, state = random_problem(rng, n_points=6, n_train=2)
        targets = [(i, 0) for i in range(6)]
        with pytest.raises(InvalidInputError, match=r"fidelity level 7 outside the GP's "
                                                    r"levels 0\.\.1"):
            PendingSet(state, pool, targets, [(0, 1), (1, 7)],
                       [0.1, 0.1])

    def test_pending_input_above_the_gp_levels_is_rejected(self):
        rng = np.random.default_rng(19)
        pool, _, _, state = random_problem(rng, n_points=6, n_train=2)
        targets = [(i, 0) for i in range(6)]
        with pytest.raises(InvalidInputError, match=r"fidelity level 2 outside the GP's "
                                                    r"levels 0\.\.1"):
            acquisition_J(state, pool, [(0, 0), (1, 2)], targets)

    def test_deltaj_nonpositive_and_decreasing_J(self):
        rng = np.random.default_rng(15)
        pool, log, _, state = random_problem(rng, n_points=20, n_train=5)
        targets = [(i, 0) for i in range(20)]
        cands = [(i, 0) for i in range(20)
                 if (i, 0) not in log]
        pending = PendingSet(state, pool, targets, cands, np.ones(len(cands)))
        j_prev = pending.J()
        for _ in range(5):
            _, dj = pending.select_next()
            assert dj <= 0.0
            j_now = pending.J()
            assert j_now <= j_prev + 1e-9
            assert j_now - j_prev == pytest.approx(dj, abs=1e-9)
            j_prev = j_now

    def test_fully_determined_candidate_skipped(self):
        # duplicated coordinates: once one copy is pending, the twin's Schur
        # complement collapses and it must not be picked again
        pts = np.zeros((4, 2))
        pts[1] = [3.0, 0.0]
        pts[2] = [0.0, 3.0]
        pts[3] = [3.0, 3.0]
        pool = EmbeddingPool(np.vstack([pts, pts[0]]))  # point 4 duplicates point 0
        hyper = GpHyperparams(np.ones(2), 1.0, np.zeros((0, 2)), np.zeros(0),
                              np.zeros(0), 1e-13)
        state = fit_posterior(pool, EvaluationLog(), hyper, gamma=0.0)
        targets = [(i, 0) for i in range(5)]
        cands = [(0, 0), (4, 0), (1, 0)]
        pending = PendingSet(state, pool, targets, cands, np.ones(3))
        first, _ = pending.select_next()
        second, _ = pending.select_next()
        chosen = {first, second}
        assert not {(0, 0), (4, 0)} <= chosen


def _problem_candidates(log, n_points, n_levels):
    cands = [(i, l) for i in range(n_points) for l in range(n_levels)
             if (i, l) not in log]
    costs = np.array([(1.0, 0.25, 0.1)[c[1]] for c in cands])
    return cands, costs


class TestTargetPruning:
    @pytest.mark.parametrize("row_tol", [1e-12, 1e-2])
    @pytest.mark.parametrize("n_levels", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_gains_within_dropped_beta_of_unpruned(self, monkeypatch, seed, n_levels,
                                                   row_tol):
        # a dropped row adds between 0 and its beta(s, 1) to any gain at any
        # step, so pruned and unpruned gains differ by at most dropped_beta
        import rare_sampler.acquisition as acq
        rng = np.random.default_rng(1200 + seed)
        pool, log, _, state = random_problem(rng, n_points=40, n_train=8,
                                             n_levels=n_levels, spread=2.0)
        targets = [(i, 0) for i in range(40)]
        cands, costs = _problem_candidates(log, 40, n_levels)
        monkeypatch.setattr(acq, "_ROW_TOL", row_tol)
        pruned = PendingSet(state, pool, targets, cands, costs)
        monkeypatch.setattr(acq, "_ROW_TOL", -1.0)  # a negative tolerance keeps every row
        ref = PendingSet(state, pool, targets, cands, costs)
        assert ref.n_live_targets == ref.s_T.size and ref.dropped_beta == 0.0
        if row_tol == 1e-2:
            assert pruned.n_live_targets < ref.n_live_targets
            assert pruned.dropped_beta > 0.0
        assert pruned.J() - 1e-15 <= ref.J() <= pruned.J() + pruned.dropped_beta / 40 + 1e-15
        cols = np.arange(len(cands))
        for _ in range(6):
            g = pruned._exact_columns(cols, pruned._beta_cur().sum())
            g_ref = ref._exact_columns(cols, ref._beta_cur().sum())
            assert np.max(np.abs(g - g_ref)) <= pruned.dropped_beta + 1e-10
            chosen, _ = pruned.select_next()
            ref._apply(cands.index(chosen))

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_beta_pruning_matches_naive_reference(self, seed):
        # six far-away observed level-0 points with tiny jitter: their targets
        # have a posterior sd near 1e-4, so |s| is huge and beta(s, 1)
        # underflows to exactly 0, while the 18 unobserved points near the
        # origin keep a prior-sized beta
        rng = np.random.default_rng(1300 + seed)
        far = np.column_stack([30.0 + 5.0 * np.arange(6), np.zeros(6)])
        pool = EmbeddingPool(np.vstack([rng.standard_normal((18, 2)), far]))
        hyper = GpHyperparams(rng.uniform(0.5, 2.0, 2), 1.0, rng.uniform(0.5, 2.0, (1, 2)),
                              np.array([0.2]), np.array([0.02]), 1e-8)
        log = EvaluationLog()
        for i in range(18, 24):
            log.append((i, 0), float(rng.standard_normal()), 1)
        state = fit_posterior(pool, log, hyper, float(np.quantile(log.values, 0.3)))
        targets = [(i, 0) for i in range(24)]
        cands, costs = _problem_candidates(log, 24, 2)
        pending = PendingSet(state, pool, targets, cands, costs)
        assert pending.dropped_beta == 0.0
        assert pending.n_live_targets == 18
        fast = select_batch(state, pool, cands, costs, targets, budget=2.0)
        naive = selection_arrays(naive_select_batch(state, pool, cands, costs, targets,
                                                    budget=2.0))
        np.testing.assert_array_equal(fast[0], naive[0])
        np.testing.assert_allclose(fast[1], naive[1], atol=1e-10)
        np.testing.assert_array_equal(fast[2], naive[2])

    @pytest.mark.parametrize("seed", range(3))
    def test_deterministic_targets_are_never_live(self, monkeypatch, seed):
        # a floor at the median target sd makes half the targets
        # deterministic: threshold_scores scores them +-inf, so beta(s, 1) = 0
        # and the beta rule prunes them with the other zero rows
        import rare_sampler.estimator as est
        rng = np.random.default_rng(1410 + seed)
        pool, log, _, state = random_problem(rng, n_points=30, n_train=8)
        targets = [(i, 0) for i in range(30)]
        cands, costs = _problem_candidates(log, 30, 2)
        sd = np.sqrt(state.mean_var_norm(pool.points, np.zeros(30, dtype=np.intp))[1])
        floor = float(np.median(sd))
        monkeypatch.setattr(est, "SIGMA_FLOOR", floor)
        pending = PendingSet(state, pool, targets, cands, costs)
        assert 0 < pending.n_live_targets <= np.count_nonzero(sd >= floor) < 30
        assert np.all(np.sqrt(pending.var_T) >= floor)
        assert pending.J() == pytest.approx(acquisition_J(state, pool, [], targets),
                                            abs=pending.dropped_beta / 30 + 1e-15)
        for _ in range(3):
            pending.select_next()

    def test_live_count_and_full_target_average(self):
        rng = np.random.default_rng(1400)
        pool, log, _, state = random_problem(rng, n_points=30, n_train=6)
        targets = [(i, 0) for i in range(30)]
        cands, costs = _problem_candidates(log, 30, 2)
        pending = PendingSet(state, pool, targets, cands, costs)
        assert pending.n_targets == len(targets)
        assert pending.n_live_targets == pending.s_T.size <= pending.n_targets
        assert pending.J() == pytest.approx(acquisition_J(state, pool, [], targets),
                                            abs=pending.dropped_beta / 30 + 1e-15)

    def test_all_targets_pruned_picks_lexicographically(self):
        # a threshold a thousand standard deviations away leaves no point variance
        rng = np.random.default_rng(1401)
        pool, log, _, state = random_problem(rng, n_points=20, n_train=5, gamma=1e3)
        targets = [(i, 0) for i in range(20)]
        cands, costs = _problem_candidates(log, 20, 2)
        pending = PendingSet(state, pool, targets, cands, costs)
        assert pending.n_targets == 20
        assert pending.n_live_targets == 0 and pending.dropped_beta == 0.0
        assert pending.J() == 0.0
        for expected in sorted(cands)[:3]:
            chosen, dj = pending.select_next()
            assert chosen == expected and dj == 0.0 and not np.signbit(dj)


class TestScaledRows:
    """``PendingSet`` writes each candidate chunk of its scaled rows straight
    into ``TCs``; the values must be those of the fresh-array assembly."""

    @pytest.mark.parametrize("row_tol", [1e-12, 1e-2])
    @pytest.mark.parametrize("n_points,n_train,n_levels", [
        (300, 10, 2), (2300, 0, 1), (1500, 30, 2), (1400, 12, 3)])
    def test_matches_fresh_array_assembly(self, monkeypatch, n_points, n_train,
                                          n_levels, row_tol):
        # candidate counts from one 2048-column chunk to four, the last partial
        import rare_sampler.acquisition as acq
        monkeypatch.setattr(acq, "_ROW_TOL", row_tol)
        rng = np.random.default_rng(n_points + n_train + n_levels)
        pool, log, _, state = random_problem(rng, n_points=n_points, n_train=n_train,
                                             n_levels=n_levels, spread=2.0)
        members = rng.choice(n_points, 150, replace=False)
        targets = np.column_stack([members, np.zeros_like(members)])
        points = np.repeat(np.arange(n_points), n_levels)
        levels = np.tile(np.arange(n_levels), n_points)
        seen = np.zeros((n_points, n_levels), dtype=bool)
        seen[log.inputs[:, 0], log.inputs[:, 1]] = True
        keep = ~seen[points, levels]
        candidates = np.column_stack([points[keep], levels[keep]])
        costs = np.array([1.0, 0.25, 0.1])[candidates[:, 1]]
        pending = PendingSet(state, pool, targets, candidates, costs)
        want = reference_scaled_rows(state, pool, targets, candidates)
        assert pending.TCs.shape == want.shape == (pending.n_live_targets, len(candidates))
        np.testing.assert_array_equal(pending.TCs, want)


def _duplicated_problem(seed, n_levels=2, jitter=1e-6):
    """A random problem whose pool repeats every point once (point i + 15
    sits on point i), with the repeats' candidates at every level."""
    rng = np.random.default_rng(seed)
    pool, log, hyper, state = random_problem(rng, n_points=15, n_train=5,
                                             n_levels=n_levels, jitter=jitter)
    pool = EmbeddingPool(np.vstack([pool.points, pool.points]))
    state = fit_posterior(pool, log, hyper, state.gamma)
    targets = [(i, 0) for i in range(30)]
    cands, costs = _problem_candidates(log, 30, n_levels)
    return pool, log, state, targets, cands, costs


# absolute error of the exact stage's Chebyshev fit of beta, per live target
# (the acquisition module's degree-14 fit; 5.6e-12 measured over s in [-8, 8])
CHEB_ABS_ERR = 6e-12


class TestCertifiedBounds:
    """The bound sweep drops the clip of E at t_hat: E = R^2 / h <= t_hat holds
    exactly, and the selection's margins must absorb the round-off.  The exact
    gains come from ``_exact_columns``, which carries the Chebyshev fit's
    error; once every gain is below about 1e-10 that error, not the bounds,
    sets the comparison, so it is allowed for."""

    @staticmethod
    def assert_bounds_hold(pending):
        feas_idx = np.flatnonzero(~pending._mask & (pending.h_C > pending._h_floor))
        beta = pending._beta_cur()
        Lg, Ug = pending._gain_bounds(beta)
        scale = float(Ug[feas_idx].max(initial=0.0))
        exact = pending._exact_columns(feas_idx, beta.sum())
        cheb = CHEB_ABS_ERR * pending.n_live_targets
        assert np.all(Lg[feas_idx] * 0.98 - 1e-7 * scale <= exact + cheb)
        assert np.all(exact <= Ug[feas_idx] * 1.02 + 1e-7 * scale + cheb)
        return pending.that_T

    @pytest.mark.parametrize("jitter", [1e-6, 1e-10, 1e-13])
    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_bracket_exact_gains_at_every_step(self, seed, jitter):
        # level-0 picks of points that are also targets drive those targets'
        # t_hat to about jitter / variance, and leave the repeated point's
        # twin with h near 2 * jitter, down to the h floor
        pool, log, state, targets, cands, costs = _duplicated_problem(1500 + seed,
                                                                      jitter=jitter)
        pending = PendingSet(state, pool, targets, cands, np.ones(len(cands)))
        smallest = []
        for _ in range(20):
            smallest.append(float(self.assert_bounds_hold(pending).min(initial=1.0)))
            pending.select_next()
        assert min(smallest) < 1e-4  # t_hat near 0 was reached

    @pytest.mark.parametrize("n_levels", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_bracket_exact_gains_on_random_problems(self, seed, n_levels):
        rng = np.random.default_rng(1600 + seed)
        pool, log, _, state = random_problem(rng, n_points=40, n_train=8,
                                             n_levels=n_levels, spread=2.0)
        targets = [(i, 0) for i in range(40)]
        cands, costs = _problem_candidates(log, 40, n_levels)
        pending = PendingSet(state, pool, targets, cands, costs)
        for _ in range(12):
            self.assert_bounds_hold(pending)
            pending.select_next()


class TestStepMatchesReference:
    """Picks, deltaJ and the recursion state equal, bit for bit, the greedy
    step with list-stacked rows, rebuilt kernel rows and a Python exact-stage
    loop (helpers.ReferencePendingSet)."""

    @staticmethod
    def assert_same_steps(state, pool, targets, cands, costs, steps):
        fast = PendingSet(state, pool, targets, cands, costs)
        ref = ReferencePendingSet(state, pool, targets, cands, costs)
        for _ in range(steps):
            expected = ref.select_next()
            got = fast.select_next()
            if expected is None:
                assert got is None
                break
            assert got[0] == expected[0]
            assert np.float64(got[1]).tobytes() == np.float64(expected[1]).tobytes()
            np.testing.assert_array_equal(fast.that_T, ref.that_T)
            np.testing.assert_array_equal(fast.h_C, ref.h_C)
        return fast

    @pytest.mark.parametrize("n_levels", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_points_with_equal_costs_tie(self, seed, n_levels):
        pool, _, state, targets, cands, _ = _duplicated_problem(1700 + seed,
                                                               n_levels=n_levels)
        fast = self.assert_same_steps(state, pool, targets, cands,
                                      np.ones(len(cands)), 8)
        # the first pick's twin gives the same gain, and the lower index wins
        assert fast.selected[0, 0] < 15

    def test_all_targets_pruned_falls_back_to_lexicographic(self):
        # 20 points give one exact-stage block of candidates; 120 give more
        # than _BLOCK, so in reverse order the least (point, level) sits in
        # the last block and no block may stop the zero-gain scan
        import rare_sampler.acquisition as acq
        for n_points in (20, 120):
            rng = np.random.default_rng(1401)
            pool, log, _, state = random_problem(rng, n_points=n_points, n_train=5,
                                                 gamma=1e3)
            targets = [(i, 0) for i in range(n_points)]
            cands, costs = _problem_candidates(log, n_points, 2)
            assert (len(cands) > acq._BLOCK) == (n_points == 120)
            rev = cands[::-1]  # candidate order must not matter to the zero-gain pick
            fast = self.assert_same_steps(state, pool, targets, rev, costs[::-1], 5)
            assert fast.n_live_targets == 0
            np.testing.assert_array_equal(fast.selected, sorted(cands)[:5])
            pending = PendingSet(state, pool, targets, rev, costs[::-1])
            for _ in range(5):
                _, dj = pending.select_next()
                assert dj == 0.0 and not np.signbit(dj)

    @pytest.mark.parametrize("n_levels", [2, 3])
    @pytest.mark.parametrize("seed", range(2))
    def test_more_steps_than_the_first_row_buffer(self, seed, n_levels):
        rng = np.random.default_rng(1800 + seed)
        pool, log, _, state = random_problem(rng, n_points=30, n_train=6,
                                             n_levels=n_levels)
        targets = [(i, 0) for i in range(30)]
        cands, costs = _problem_candidates(log, 30, n_levels)
        fast = self.assert_same_steps(state, pool, targets, cands, costs, 40)
        assert len(fast.selected) == 40 and len(fast._bT) >= 40

    @pytest.mark.parametrize("cls", [PendingSet, ReferencePendingSet])
    def test_stacks_hold_zero_rows_before_the_first_pick(self, cls):
        # the k = 0 step runs the general path over zero recursion rows
        rng = np.random.default_rng(1900)
        pool, log, _, state = random_problem(rng, n_points=20, n_train=5)
        cands, costs = _problem_candidates(log, 20, 2)
        pending = cls(state, pool, [(i, 0) for i in range(20)], cands, costs)
        bT, bC = pending._stacks()
        assert bT.shape == (0, pending.n_live_targets) and bC.shape == (0, len(cands))


class TestCorollaryBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_J_bounds_expected_conditional_variance(self, seed):
        # Monte Carlo estimate of E[Var(p_hat) | pending] must sit below J
        rng = np.random.default_rng(900 + seed)
        pool, _, _, state = random_problem(rng, n_points=20, n_train=5)
        k = int(rng.integers(1, 4))
        pending = [(int(i), int(rng.integers(2)))
                   for i in rng.choice(20, k, replace=False)]
        targets = [(i, 0) for i in range(20)]
        J = acquisition_J(state, pool, pending, targets)
        mu_new, cov_new = simulate_conditioned_posteriors(state, pool, pending,
                                                          n_draws=3000, rng=rng)
        var_new = np.maximum(np.diag(cov_new), 0.0)
        sd = np.sqrt(np.maximum(var_new, 1e-300))
        live = sd > 1e-10
        n = pool.n_points
        rho = np.zeros((n, n))
        rho[np.ix_(live, live)] = np.clip(
            cov_new[np.ix_(live, live)] / np.outer(sd[live], sd[live]), -1.0, 1.0)
        iu, ju = np.triu_indices(n, k=1)
        pair_live = live[iu] & live[ju]
        variances = np.empty(mu_new.shape[0])
        for d in range(mu_new.shape[0]):
            s = np.where(live, (state.gamma_norm - mu_new[d]) / sd, np.inf)
            s = np.where((state.gamma_norm - mu_new[d]) >= 0, np.abs(s), -np.abs(s))
            p = ndtr(s)
            total = float((p * (1 - p)).sum())
            joint = bivariate_normal_cdf(s[iu][pair_live], s[ju][pair_live],
                                         rho[iu, ju][pair_live])
            total += 2.0 * float(np.sum(joint - (p[iu] * p[ju])[pair_live]))
            variances[d] = total / (n * n)
        mc = variances.mean()
        se = variances.std(ddof=1) / np.sqrt(len(variances))
        assert mc <= J + 3 * se
