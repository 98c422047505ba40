import numpy as np
import pytest

from rare_sampler import (CeState, EmbeddingPool, EvaluationLog, FidelityConfig, RunConfig,
                          elite_gaussian, gaussian_pdf_scores, mc_scores,
                          random_acquisition, run_experiment)
from rare_sampler.baselines import ce_picks, scores_from_csv
from rare_sampler.errors import InvalidInputError, OracleError

from helpers import reference_cross_entropy, reference_mc_run


def run_method(pool, oracle, method, batches, m1, m_b, seed):
    """One mc or ce run through the experiment loop."""
    config = RunConfig(gamma=0.0, method=method, m1=m1, m_b=m_b, batches=batches, seed=seed)
    return run_experiment(pool, config, oracle)


def run_ce(pool, oracle, batches, m1, m_b, seed):
    """ce through the experiment loop: (final CeState, final scores, log)."""
    result = run_method(pool, oracle, "ce", batches, m1, m_b, seed)
    return elite_gaussian(pool, result.log), result.scores(alpha=2.5), result.log


class TestRandomAcquisition:
    def test_unit_cost_budget_is_exact_count(self):
        pool = EmbeddingPool(np.random.default_rng(0).standard_normal((100, 2)))
        picks = random_acquisition(pool, FidelityConfig((1.0,)), budget=15, seed=1)
        assert picks.shape == (15, 2) and picks.dtype == np.intp
        assert len(np.unique(picks, axis=0)) == 15
        assert not picks[:, 1].any()

    def test_multifidelity_cost_accounting(self):
        pool = EmbeddingPool(np.random.default_rng(1).standard_normal((500, 2)))
        fid = FidelityConfig((1.0, 0.1))
        picks = random_acquisition(pool, fid, budget=10.0, seed=2)
        total = sum(fid.costs[level] for level in picks[:, 1].tolist())
        assert total >= 10.0
        assert total - min(fid.costs) < 10.0 + 1.0

    def test_seeded_determinism(self):
        pool = EmbeddingPool(np.random.default_rng(2).standard_normal((50, 2)))
        fid = FidelityConfig((1.0, 0.5))
        a = random_acquisition(pool, fid, budget=5, seed=7)
        b = random_acquisition(pool, fid, budget=5, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_exclusion_respected(self):
        pool = EmbeddingPool(np.random.default_rng(3).standard_normal((10, 2)))
        exclude = [(i, 0) for i in range(9)]
        picks = random_acquisition(pool, FidelityConfig((1.0,)), budget=5, seed=0,
                                   exclude=exclude)
        np.testing.assert_array_equal(picks, [[9, 0]])  # pool exhausted -> partial set

    @pytest.mark.parametrize("budget", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_budget_rejected(self, budget):
        # a NaN budget would take every input: no cumulative cost passes it
        pool = EmbeddingPool(np.random.default_rng(4).standard_normal((10, 2)))
        with pytest.raises(InvalidInputError, match="budget must be positive and finite"):
            random_acquisition(pool, FidelityConfig((1.0,)), budget=budget, seed=0)


class TestMcScores:
    def test_scores_are_positive_and_normalized(self):
        sv = mc_scores(1000, seed=0)
        assert np.all(sv.q > 0)
        assert sv.q.sum() == pytest.approx(1.0)

    def test_ranking_is_a_permutation(self):
        sv = mc_scores(500, seed=1)
        order = np.argsort(-sv.scores, kind="stable")
        assert sorted(order.tolist()) == list(range(500))
        assert len(np.unique(sv.scores)) == 500  # continuous draws: no ties

    def test_random_ranking_expectation(self):
        # recall of a random ranking at retention K is ~K/N
        from rare_sampler import retention_recall_curve
        n, n_fail = 2000, 40
        truth = np.zeros(n, dtype=bool)
        truth[:n_fail] = True
        at_two = []
        for s in range(200):
            curve = retention_recall_curve(mc_scores(n, seed=s), truth)
            at_two.append(dict((round(t, 2), r) for t, r in curve)[2.0])
        assert np.mean(at_two) == pytest.approx(2 * n_fail / n, abs=0.01)


class TestCrossEntropy:
    @staticmethod
    def blob_pool_and_oracle(seed=0):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((400, 2))
        pts[:40] = pts[:40] * 0.2 + np.array([2.5, 2.5])  # low-f blob
        pool = EmbeddingPool(pts)

        def oracle(i, level):
            x = pool.points[i]
            return float(np.linalg.norm(x - [2.5, 2.5]))

        return pool, oracle

    def test_identical_elites_collapse_to_point(self):
        pool = EmbeddingPool(np.vstack([np.zeros((5, 2)) + 1.25,
                                        np.random.default_rng(0).standard_normal((20, 2)) + 8.0]))

        def oracle(i, level):
            return 0.0 if i < 5 else 10.0

        state, scores, _ = run_ce(pool, oracle, batches=2, m1=25, m_b=5, seed=3)
        np.testing.assert_allclose(state.mean, [1.25, 1.25], atol=1e-9)
        floor = 1e-6 * np.maximum(pool.points.var(axis=0), 1e-30)
        np.testing.assert_allclose(state.var, floor)

    def test_mean_moves_toward_low_f_blob(self):
        pool, oracle = self.blob_pool_and_oracle()
        target = np.array([2.5, 2.5])
        rng = np.random.default_rng(1)
        first = rng.choice(pool.n_points, 20, replace=False)
        state, _, log = run_ce(pool, oracle, batches=3, m1=20, m_b=10, seed=1)
        start_mean = pool.points[log.inputs[:20, 0]].mean(axis=0)
        assert np.linalg.norm(state.mean - target) < np.linalg.norm(start_mean - target)

    def test_batch_means_decrease(self):
        pool, oracle = self.blob_pool_and_oracle(seed=2)
        _, _, log = run_ce(pool, oracle, batches=3, m1=20, m_b=10, seed=5)
        means = [log.values[log.batches == b].mean() for b in (1, 2, 3)]
        assert means[2] < means[0]

    def test_empty_log_has_no_gaussian(self):
        # batch 1 of a run draws uniformly for want of one
        pool, _ = self.blob_pool_and_oracle(seed=4)
        assert elite_gaussian(pool, EvaluationLog()) is None

    def test_never_reevaluates(self):
        pool, oracle = self.blob_pool_and_oracle(seed=3)
        _, _, log = run_ce(pool, oracle, batches=3, m1=15, m_b=8, seed=6)
        inputs = log.inputs[:, 0].tolist()
        assert len(inputs) == len(set(inputs))

    @pytest.mark.parametrize("budget", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_budget_rejected(self, budget):
        # checked as random_acquisition and select_batch check it, with an
        # empty log (uniform picks) and a fitted Gaussian alike
        pool, oracle = self.blob_pool_and_oracle(seed=4)
        log = EvaluationLog()
        for _ in range(2):
            with pytest.raises(InvalidInputError,
                               match=rf"^budget must be positive and finite, got {budget!r}$"):
                ce_picks(pool, log, budget, np.random.default_rng(0))
            log.evaluate(oracle, ce_picks(pool, log, 10.0, np.random.default_rng(0)), 1)

    @pytest.mark.parametrize("good_calls", [0, 15], ids=["first-batch", "later-batch"])
    def test_oracle_failure_names_the_input(self, good_calls):
        pool, metric = self.blob_pool_and_oracle(seed=3)
        calls = []

        def oracle(i, level):
            if len(calls) == good_calls:
                raise RuntimeError("simulator crashed")
            calls.append(i)
            return metric(i, level)

        with pytest.raises(OracleError, match=r"point \d+ level 0: simulator crashed"):
            run_ce(pool, oracle, batches=3, m1=15, m_b=8, seed=6)


class TestLoopReferences:
    """mc and ce through run_experiment against their former stand-alone loops."""

    # (m1, m_b, batches); the last exhausts the 30-point pool in batch 3
    TRIPLES = [(6, 3, 3), (10, 4, 2), (12, 10, 4)]

    @staticmethod
    def pool_and_oracle(seed):
        pool = EmbeddingPool(np.random.default_rng(100 + seed).standard_normal((30, 2)))

        def oracle(i, level):
            return float(np.linalg.norm(pool.points[i] - [1.0, 1.0]))

        return pool, oracle

    @staticmethod
    def assert_same_log(log, ref):
        np.testing.assert_array_equal(log.inputs, ref.inputs)
        np.testing.assert_array_equal(log.values, ref.values)
        np.testing.assert_array_equal(log.batches, ref.batches)

    @pytest.mark.parametrize("m1,m_b,batches", TRIPLES)
    @pytest.mark.parametrize("seed", range(5))
    def test_mc_matches_reference_loop(self, seed, m1, m_b, batches):
        pool, oracle = self.pool_and_oracle(seed)
        result = run_method(pool, oracle, "mc", batches, float(m1), float(m_b), seed)
        ref_log, ref_scores = reference_mc_run(pool, oracle, batches, float(m1),
                                               float(m_b), seed)
        self.assert_same_log(result.log, ref_log)
        scores = result.scores(alpha=2.5)
        np.testing.assert_array_equal(scores.scores, ref_scores.scores)
        np.testing.assert_array_equal(scores.q, ref_scores.q)

    @pytest.mark.parametrize("m1,m_b,batches", TRIPLES)
    @pytest.mark.parametrize("seed", range(5))
    def test_ce_matches_reference_loop(self, seed, m1, m_b, batches):
        pool, oracle = self.pool_and_oracle(seed)
        state, scores, log = run_ce(pool, oracle, batches, float(m1), float(m_b), seed)
        ref_state, ref_scores, ref_log = reference_cross_entropy(
            pool, oracle, batches=batches, m1=m1, m_b=m_b, seed=[seed, 1])
        self.assert_same_log(log, ref_log)
        np.testing.assert_array_equal(state.mean, ref_state.mean)
        np.testing.assert_array_equal(state.var, ref_state.var)
        np.testing.assert_array_equal(scores.scores, ref_scores.scores)
        np.testing.assert_array_equal(scores.q, ref_scores.q)

    def test_fractional_budget_takes_the_random_batch_count(self):
        # a ce batch takes ceil(budget) points, as many as a level-0 random
        # batch needs to reach the budget
        pool, oracle = self.pool_and_oracle(0)
        counts = {}
        for method in ("mc", "ce"):
            log = run_method(pool, oracle, method, 3, 2.5, 1.5, 0).log
            counts[method] = [int((log.batches == b).sum()) for b in (1, 2, 3)]
        assert counts["ce"] == counts["mc"] == [3, 2, 2]


class TestGaussianScores:
    def test_mean_point_has_max_score(self):
        rng = np.random.default_rng(4)
        pool = EmbeddingPool(rng.standard_normal((50, 2)))
        state = CeState(mean=pool.points[17].copy(), var=np.array([0.5, 0.5]))
        sv = gaussian_pdf_scores(state, pool)
        assert int(np.argmax(sv.scores)) == 17

    def test_isotropic_scores_decrease_with_distance(self):
        rng = np.random.default_rng(5)
        pool = EmbeddingPool(rng.standard_normal((100, 2)))
        state = CeState(mean=np.zeros(2), var=np.ones(2))
        sv = gaussian_pdf_scores(state, pool)
        dist = np.linalg.norm(pool.points, axis=1)
        order = np.argsort(dist)
        assert np.all(np.diff(sv.scores[order]) <= 1e-15)

    def test_density_values_match_formula(self):
        pool = EmbeddingPool(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0],
                                       [1.0, 1.0], [-1.0, 0.5]]))
        state = CeState(mean=np.array([0.5, 0.5]), var=np.array([1.5, 0.7]))
        sv = gaussian_pdf_scores(state, pool)
        dens = np.exp(-0.5 * np.sum((pool.points - state.mean) ** 2 / state.var, axis=1))
        dens /= np.sqrt(np.prod(2 * np.pi * state.var))
        np.testing.assert_allclose(sv.q, dens / dens.sum(), rtol=1e-12)


class TestExternalScores:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("point_index,score\n0,0.5\n1,2.0\n2,0.25\n")
        sv = scores_from_csv(path, 3)
        np.testing.assert_allclose(sv.q, np.array([0.5, 2.0, 0.25]) / 2.75)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("point_index,score\n0,0.5\n")
        with pytest.raises(InvalidInputError):
            scores_from_csv(path, 2)
