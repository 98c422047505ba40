import re

import numpy as np
import pytest

from rare_sampler import (InvalidInputError, SyntheticOracle, SyntheticSpec,
                          generate_pool, ground_truth_labels, metric_level0)


class TestPoolGeneration:
    def test_sample_mean_near_zero(self):
        spec = SyntheticSpec(seed=0)
        pool = generate_pool(spec)
        bound = 3.0 / np.sqrt(spec.n_points)
        assert np.all(np.abs(pool.points.mean(axis=0)) < bound)

    @pytest.mark.parametrize("seed", range(5))
    def test_failure_rate_near_half_percent(self, seed):
        spec = SyntheticSpec(seed=seed)
        pool = generate_pool(spec)
        rate = ground_truth_labels(pool, spec).mean()
        assert 0.004 <= rate <= 0.006

    def test_deterministic_under_seed(self):
        a = generate_pool(SyntheticSpec(seed=3))
        b = generate_pool(SyntheticSpec(seed=3))
        np.testing.assert_array_equal(a.points, b.points)


class TestOracle:
    def test_diamond_center_is_zero(self):
        spec = SyntheticSpec()
        assert metric_level0([1.95, 1.95], spec)[0] == 0.0
        assert metric_level0([-1.95, 1.95], spec)[0] == 0.0

    def test_origin_value(self):
        spec = SyntheticSpec()
        assert metric_level0([0.0, 0.0], spec)[0] == pytest.approx(3.9)

    def test_level1_noise_is_deterministic_per_index(self):
        spec = SyntheticSpec(seed=1)
        pool = generate_pool(spec)
        oracle = SyntheticOracle(pool, spec, noise_seed=5)
        assert oracle(17, 1) == oracle(17, 1)
        assert oracle(17, 1) != oracle(18, 1)
        assert oracle(17, 0) == metric_level0(pool.points[17:18], spec)[0]

    def test_level1_residual_statistics(self):
        spec = SyntheticSpec(seed=2, n_points=10_000)
        pool = generate_pool(spec)
        oracle = SyntheticOracle(pool, spec, noise_seed=0)
        f0 = metric_level0(pool.points, spec)
        resid = np.array([oracle(i, 1) for i in range(10_000)]) - f0
        assert abs(resid.mean()) < 3 * 0.1 / 100.0
        assert 0.095 <= resid.std() <= 0.105

    def test_negative_seeds_rejected(self):
        # numpy's default_rng takes no negative seed, so each owner names its own
        with pytest.raises(InvalidInputError, match="pool seed must be >= 0, got -3"):
            SyntheticSpec(seed=-3)
        pool = generate_pool(SyntheticSpec(n_points=10))
        with pytest.raises(InvalidInputError, match="noise_seed must be >= 0, got -2"):
            SyntheticOracle(pool, SyntheticSpec(), noise_seed=-2)

    @pytest.mark.parametrize("settings,error", [
        ({"n_points": 0}, "pool size n must be >= 1, got 0"),
        ({"n_points": -5}, "pool size n must be >= 1, got -5"),
        ({"center": np.inf}, "center must be finite, got inf"),
        ({"center": np.nan}, "center must be finite, got nan"),
        ({"gamma": -np.inf}, "gamma must be finite, got -inf"),
        ({"noise_std": -0.1}, "synthetic noise_std must be >= 0 and finite, got -0.1"),
        ({"noise_std": np.nan}, "synthetic noise_std must be >= 0 and finite, got nan"),
    ], ids=["n-zero", "n-negative", "center-inf", "center-nan", "gamma-inf",
            "noise-negative", "noise-nan"])
    def test_settings_out_of_range_rejected(self, settings, error):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(error)}$"):
            SyntheticSpec(**settings)

    def test_noiseless_level_1_is_accepted(self):
        pool = generate_pool(SyntheticSpec(n_points=10, noise_std=0.0))
        oracle = SyntheticOracle(pool, SyntheticSpec(n_points=10, noise_std=0.0))
        assert oracle(3, 1) == oracle(3, 0)

    def test_unknown_level_rejected(self):
        spec = SyntheticSpec()
        pool = generate_pool(SyntheticSpec(n_points=10))
        with pytest.raises(InvalidInputError):
            SyntheticOracle(pool, spec)(0, 2)


class TestLabels:
    def test_center_fails_origin_does_not(self):
        spec = SyntheticSpec()
        vals = metric_level0(np.array([[1.95, 1.95], [0.0, 0.0]]), spec)
        assert vals[0] <= spec.gamma
        assert vals[1] > spec.gamma

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(4)
        spec = SyntheticSpec()
        pts = rng.standard_normal((500, 2)) * 2
        flipped = pts * np.array([-1.0, 1.0])
        np.testing.assert_array_equal(metric_level0(pts, spec) <= spec.gamma,
                                      metric_level0(flipped, spec) <= spec.gamma)

    def test_counts_match_direct_evaluation(self):
        spec = SyntheticSpec(seed=6)
        pool = generate_pool(spec)
        labels = ground_truth_labels(pool, spec)
        direct = np.array([metric_level0(x, spec)[0] <= spec.gamma
                           for x in pool.points[:100]])
        np.testing.assert_array_equal(labels[:100], direct)
