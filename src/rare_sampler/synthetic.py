"""Two-dimensional synthetic benchmark with two failure diamonds.

The pool is standard-normal; the performance metric is the L1 distance to
the nearer of two diamond centers at (+-c, c), so points inside either
diamond of radius gamma fail.  A second fidelity level returns the same
metric plus Gaussian noise at a tenth of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .pool import EmbeddingPool, write_csv


@dataclass(frozen=True)
class SyntheticSpec:
    n_points: int = 20000
    center: float = 1.95
    gamma: float = 0.56
    noise_std: float = 0.1
    level1_cost: float = 0.10
    seed: int = 0


def generate_pool(spec: SyntheticSpec) -> EmbeddingPool:
    """N seeded standard-normal points in the plane."""
    rng = np.random.default_rng(spec.seed)
    return EmbeddingPool(rng.standard_normal((spec.n_points, 2)))


def metric_level0(points: np.ndarray, spec: SyntheticSpec) -> np.ndarray:
    """Noise-free metric: | |x0| - c | + | x1 - c |."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.abs(np.abs(pts[:, 0]) - spec.center) + np.abs(pts[:, 1] - spec.center)


class SyntheticOracle:
    """Index-based oracle over a generated pool.

    Level-1 noise is a deterministic function of (point index, noise seed),
    so re-querying an augmented input always returns the same value.
    """

    def __init__(self, pool: EmbeddingPool, spec: SyntheticSpec, noise_seed: int = 0):
        self.pool = pool
        self.spec = spec
        self.noise_seed = int(noise_seed)
        self._f0 = metric_level0(pool.points, spec)

    def __call__(self, point_index: int, level: int) -> float:
        if not 0 <= point_index < self.pool.n_points:
            raise InvalidInputError(f"point index {point_index} out of bounds")
        if level == 0:
            return float(self._f0[point_index])
        if level == 1:
            noise = np.random.default_rng([self.noise_seed, point_index]).standard_normal()
            return float(self._f0[point_index] + self.spec.noise_std * noise)
        raise InvalidInputError(f"synthetic oracle has levels {{0, 1}}, got {level}")


def ground_truth_labels(pool: EmbeddingPool, spec: SyntheticSpec) -> np.ndarray:
    """Failure indicator 1{f0(x) <= gamma} per pool point."""
    return metric_level0(pool.points, spec) <= spec.gamma


def export_pool_csv(pool: EmbeddingPool, spec: SyntheticSpec, path) -> None:
    f0 = metric_level0(pool.points, spec)
    write_csv(path, ("index", "x0", "x1", "truth_f_level0"),
              ((i, x0, x1, fx) for i, ((x0, x1), fx)
               in enumerate(zip(pool.points.tolist(), f0.tolist()))))
