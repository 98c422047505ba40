import numpy as np
import pytest

from rare_sampler import (InvalidInputError, ScoreVector, importance_scores,
                          recall_at_budget, repeated_is_trials,
                          retention_recall_curve, splitting_bound)
from rare_sampler.estimator import FailureField
from rare_sampler.evaluation import IsOptions

from helpers import is_rate_trial


class TestImportanceScores:
    def test_alpha_zero_uniform(self):
        field = FailureField(p=np.array([0.1, 0.5, 0.9]))
        sv = importance_scores(field, 0.0)
        np.testing.assert_allclose(sv.q, 1.0 / 3.0)

    def test_alpha_one_proportional(self):
        field = FailureField(p=np.array([0.1, 0.3, 0.6]))
        sv = importance_scores(field, 1.0)
        np.testing.assert_allclose(sv.q, field.p / field.p.sum(), atol=1e-12)

    def test_alpha_two_point_five_frozen_values(self):
        # power-and-normalize on p = (0.1, 0.2, 0.4)
        field = FailureField(p=np.array([0.1, 0.2, 0.4]))
        sv = importance_scores(field, 2.5)
        np.testing.assert_allclose(
            sv.q,
            [0.025868633633403616, 0.14633509009768073, 0.8277962762689157],
            atol=1e-15,
        )

    def test_zero_probability_floored_positive(self):
        field = FailureField(p=np.array([0.0, 1.0]))
        sv = importance_scores(field, 2.5)
        assert sv.q[0] > 0.0
        assert sv.q.sum() == pytest.approx(1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            importance_scores(FailureField(p=np.array([0.5])), -1.0)

    @pytest.mark.parametrize("alpha", [26.0, 30.0])
    @pytest.mark.parametrize("p", [[0.0, 1e-13, 1e-12, 0.2, 0.5, 1.0], [1e-13] * 4],
                             ids=["mixed", "all-below-floor"])
    def test_alpha_that_underflows_the_floor_rejected(self, p, alpha):
        # 1e-12 ** 30 is 0: q would be 0 at p <= 1e-12, and nan when every p
        # is; 1e-12 ** 26 is subnormal and keeps only a few digits
        with pytest.raises(InvalidInputError, match=rf"alpha = {alpha:g} underflows the "
                                                    r"score floor.*alpha must be <= 25\.6"):
            importance_scores(FailureField(p=np.array(p)), alpha)

    @pytest.mark.parametrize("p", [[0.0, 1e-13, 1e-12, 0.2, 0.5, 1.0], [1e-13] * 4],
                             ids=["mixed", "all-below-floor"])
    def test_largest_alpha_keeps_every_q_positive(self, p):
        sv = importance_scores(FailureField(p=np.array(p)), 25.6)
        assert np.all(sv.q > 0.0) and sv.q.sum() == pytest.approx(1.0)


class TestIsRateTrial:
    def test_perfect_sampler_zero_variance(self):
        truth = np.zeros(50, dtype=bool)
        truth[[3, 17, 40]] = True
        q = truth / truth.sum()
        sv = ScoreVector(scores=q.astype(float), q=q.astype(float))
        for seed in range(5):
            p_hat, _ = is_rate_trial(sv, truth, K=20, seed=seed)
            assert p_hat == pytest.approx(truth.mean(), abs=1e-15)

    def test_uniform_sampler_is_plain_monte_carlo(self):
        truth = np.zeros(100, dtype=bool)
        truth[:10] = True
        sv = ScoreVector.from_raw(np.ones(100))
        rng_estimates = [is_rate_trial(sv, truth, K=50, seed=s)[0] for s in range(400)]
        assert np.mean(rng_estimates) == pytest.approx(0.1, abs=0.01)
        # every estimate is a multiple of 1/K exactly
        assert all(abs(e * 50 - round(e * 50)) < 1e-9 for e in rng_estimates)

    def test_exact_expectation_by_enumeration(self):
        rng = np.random.default_rng(0)
        truth = rng.random(200) < 0.05
        truth[0] = True
        q = rng.random(200) + 1e-3
        q /= q.sum()
        sv = ScoreVector(scores=q, q=q)
        exact = float(np.sum(q * np.where(truth, 1.0 / (200 * q), 0.0)))
        assert exact == pytest.approx(truth.mean(), abs=1e-12)

    def test_empirical_mean_within_three_se(self):
        rng = np.random.default_rng(1)
        truth = rng.random(200) < 0.05
        truth[5] = True
        q = rng.random(200) + 1e-3
        q /= q.sum()
        sv = ScoreVector(scores=q, q=q)
        trials = 10_000
        p_hats = np.array([is_rate_trial(sv, truth, K=20, seed=[7, t])[0]
                           for t in range(trials)])
        se = p_hats.std(ddof=1) / np.sqrt(trials)
        assert abs(p_hats.mean() - truth.mean()) < 3 * se

    def test_coupon_collector_recall(self):
        # perfect sampler with K >= 5 * failures recalls essentially everything;
        # at K = 10 * failures the all-coupons probability is ~0.999
        truth = np.zeros(400, dtype=bool)
        truth[::20] = True
        n_fail = int(truth.sum())
        q = truth / n_fail
        sv = ScoreVector(scores=q.astype(float), q=q.astype(float))
        hits = 0
        for seed in range(200):
            _, recall = is_rate_trial(sv, truth, K=10 * n_fail, seed=seed)
            hits += recall > 0.99
        assert hits / 200 > 0.99


class TestRepeatedTrials:
    def test_zero_variance_sampler_gives_zero_rv(self):
        truth = np.zeros(60, dtype=bool)
        truth[[1, 30]] = True
        q = truth / truth.sum()
        sv = ScoreVector(scores=q.astype(float), q=q.astype(float))
        report = repeated_is_trials(sv, truth, K=10, trials=50, seed=0)
        assert report.rv == 0.0
        assert report.p_hat_mean == pytest.approx(truth.mean())
        assert report.recall == 1.0

    def test_no_failure_drawn_gives_nan_rv(self):
        # the failure has q = 0: every trial's p_hat is 0, which says nothing
        # about the sampler's error, so rv is not reported as 0
        truth = np.zeros(40, dtype=bool)
        truth[5] = True
        q = np.where(truth, 0.0, 1.0 / 39)
        sv = ScoreVector(scores=q, q=q)
        report = repeated_is_trials(sv, truth, K=10, trials=20, seed=0)
        assert report.p_hat_mean == 0.0
        assert np.isnan(report.rv) and np.isnan(report.se_rv)
        assert report.recall_drawn_mean == 0.0

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(2)
        truth = rng.random(300) < 0.04
        truth[0] = True
        sv = ScoreVector.from_raw(rng.random(300))
        report = repeated_is_trials(sv, truth, K=30, trials=100, seed=3)
        assert 0.0 <= report.recall_drawn_mean <= 1.0
        assert report.rv >= 0.0
        assert report.se_recall >= 0.0

    @pytest.mark.parametrize("K", [0, -1])
    def test_sample_size_below_one_rejected(self, K):
        truth = np.zeros(20, dtype=bool)
        truth[3] = True
        sv = ScoreVector.from_raw(np.ones(20))
        with pytest.raises(InvalidInputError, match=f"K must be >= 1, got {K}"):
            repeated_is_trials(sv, truth, K=K, trials=10, seed=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        truth = rng.random(100) < 0.1
        truth[0] = True
        sv = ScoreVector.from_raw(rng.random(100))
        a = repeated_is_trials(sv, truth, K=20, trials=25, seed=9)
        b = repeated_is_trials(sv, truth, K=20, trials=25, seed=9)
        assert a == b


class TestIsOptions:
    def test_sample_size_is_the_rounded_multiple(self):
        truth = np.arange(100) < 7
        assert IsOptions().sample_size(truth) == 35
        assert IsOptions(k_multiple=0.5).sample_size(truth) == 4      # round(3.5)
        assert IsOptions(k_multiple=1 / 7).sample_size(truth) == 1    # any K >= 1
        with pytest.raises(InvalidInputError, match=r"K must be >= 1, got 0 \(k_multiple "
                                                    r"0\.05 x 7 failures\)"):
            IsOptions(k_multiple=0.05).sample_size(truth)

    @pytest.mark.parametrize("name,value,message", [
        ("alpha", -1.0, "alpha must be"), ("alpha", np.inf, "alpha must be"),
        ("alpha", np.nan, "alpha must be"), ("alpha", 30.0, "alpha = 30 underflows"),
        ("k_multiple", 0.0, "k_multiple must be"),
        ("k_multiple", np.nan, "k_multiple must be"), ("trials", 1, "trials must be >= 2")])
    def test_out_of_range_settings_rejected(self, name, value, message):
        with pytest.raises(InvalidInputError, match=message):
            IsOptions(**{name: value})


class TestRetentionRecall:
    def test_perfect_scores_full_recall_at_one(self):
        truth = np.zeros(50, dtype=bool)
        truth[[2, 9, 33]] = True
        sv = ScoreVector.from_raw(truth.astype(float) + 0.5)
        curve = retention_recall_curve(sv, truth)
        at_one = dict((round(t, 3), r) for t, r in curve)[1.0]
        assert at_one == 1.0

    def test_reversed_scores_zero_recall_at_one(self):
        truth = np.zeros(50, dtype=bool)
        truth[[2, 9, 33]] = True
        sv = ScoreVector.from_raw(1.0 - truth.astype(float) + 0.5)
        curve = retention_recall_curve(sv, truth)
        assert dict((round(t, 3), r) for t, r in curve)[1.0] == 0.0

    def test_non_decreasing_in_retention(self):
        rng = np.random.default_rng(5)
        truth = rng.random(500) < 0.02
        truth[0] = True
        sv = ScoreVector.from_raw(rng.random(500))
        curve = retention_recall_curve(sv, truth)
        assert np.all(np.diff(curve[:, 1]) >= 0)
        np.testing.assert_allclose(curve[:, 0], np.arange(1, 21) * 0.5)

    def test_random_scores_match_hypergeometric_expectation(self):
        rng = np.random.default_rng(6)
        n, n_fail = 1000, 20
        truth = np.zeros(n, dtype=bool)
        truth[:n_fail] = True
        recalls = []
        for s in range(300):
            sv = ScoreVector.from_raw(np.random.default_rng(s).random(n))
            curve = retention_recall_curve(sv, truth)
            recalls.append(dict((round(t, 3), r) for t, r in curve)[2.0])
        # expected recall at retention 2*n_fail of a random ranking: 2*n_fail/n
        expected = 2 * n_fail / n
        assert np.mean(recalls) == pytest.approx(expected, abs=0.01)

    def test_no_failures_rejected(self):
        with pytest.raises(InvalidInputError):
            retention_recall_curve(ScoreVector.from_raw(np.ones(5)),
                                   np.zeros(5, dtype=bool))

    def test_recall_at_budget_matches_curve(self):
        rng = np.random.default_rng(7)
        truth = rng.random(200) < 0.05
        truth[3] = True
        sv = ScoreVector.from_raw(rng.random(200))
        n_fail = int(truth.sum())
        curve = retention_recall_curve(sv, truth)
        assert recall_at_budget(sv, truth, 2 * n_fail) == pytest.approx(
            dict((round(t, 3), r) for t, r in curve)[2.0])

    @pytest.mark.parametrize("K", [0, -1])
    def test_recall_budget_below_one_rejected(self, K):
        truth = np.arange(20) == 3
        with pytest.raises(InvalidInputError, match=f"budget K must be >= 1, got {K}"):
            recall_at_budget(ScoreVector.from_raw(np.ones(20)), truth, K)


class TestTruthMatchesScores:
    @pytest.mark.parametrize("n_truth", [200, 50], ids=["too-long", "too-short"])
    @pytest.mark.parametrize("report", [
        lambda sv, truth: repeated_is_trials(sv, truth, 10, 50, seed=0),
        lambda sv, truth: recall_at_budget(sv, truth, 10),
        retention_recall_curve], ids=["is-trials", "recall-at-budget", "curve"])
    def test_truth_of_another_length_rejected(self, report, n_truth):
        # 200 labels would weight each hit for N = 200 while the draws cover
        # only the 100 scored points, a silently biased p_hat
        truth = np.arange(n_truth) % 100 == 0
        with pytest.raises(InvalidInputError, match=rf"^truth labels have shape "
                                                    rf"\({n_truth},\), the scores \(100,\)$"):
            report(ScoreVector.from_raw(np.ones(100)), truth)


class TestSplittingBound:
    def test_reference_case_one(self):
        b = splitting_bound(0.01, 0.1, target_rv=0.00851)
        assert (b.iterations, b.base_samples, b.min_total_sims) == (43, 561, 2973)

    def test_reference_case_two(self):
        b = splitting_bound(0.01, 0.1, target_rv=0.00969)
        assert (b.iterations, b.base_samples, b.min_total_sims) == (43, 493, 2613)

    def test_reference_budget_case(self):
        b = splitting_bound(0.01, 0.1, budget=2296)
        assert b.iterations == 43
        assert 100 * b.rv_lower_bound >= 1.10
        assert round(100 * b.rv_lower_bound, 2) == 1.10

    def test_loose_target_gives_tiny_n(self):
        b = splitting_bound(0.01, 0.1, target_rv=1.0)
        assert b.base_samples == int(np.floor(43 * 0.1 / (1.0 * 0.9)))
        assert b.min_total_sims == int(round(b.base_samples * (1 + 0.1 * 43)))

    @pytest.mark.parametrize("budget", [0.5, 5.29])
    def test_budget_below_one_base_sample_is_named(self, budget):
        # one base sample costs 1 + delta K = 5.3 at K = 43, so N would be 0
        with pytest.raises(InvalidInputError, match=rf"budget {budget} buys no base sample: "
                                                    r"one costs 1 \+ delta K = 5\.3 \(K = 43"):
            splitting_bound(0.01, 0.1, budget=budget)
        assert splitting_bound(0.01, 0.1, budget=5.3).base_samples == 1

    @pytest.mark.parametrize("mode", [dict(target_rv=0.01), dict(budget=100.0)],
                             ids=["target_rv", "budget"])
    def test_no_splitting_iteration_is_named(self, mode):
        # log 0.95 / log 0.9 = 0.49, so K = 0 and every count would read 0
        with pytest.raises(InvalidInputError, match=r"p_gamma 0\.95 and delta 0\.1 give no "
                                                    r"splitting iteration: K = .* = 0"):
            splitting_bound(0.95, 0.1, **mode)
        assert splitting_bound(0.9, 0.1, **mode).iterations == 1

    def test_argument_validation(self):
        with pytest.raises(InvalidInputError):
            splitting_bound(0.0, 0.1, target_rv=0.1)
        with pytest.raises(InvalidInputError):
            splitting_bound(0.01, 0.1)
        with pytest.raises(InvalidInputError):
            splitting_bound(0.01, 0.1, target_rv=0.1, budget=100)
