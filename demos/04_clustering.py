"""Lengthscale-scaled K-means with Hausdorff merges: over-segment, then fold
the smallest clusters into their nearest neighbors."""

import numpy as np

from rare_sampler import (EmbeddingPool, GpHyperparams, cluster_with_merges,
                          hausdorff_distance, kmeans, scale_points)

rng = np.random.default_rng(11)
blobs = [rng.standard_normal((n, 2)) * s + c
         for n, s, c in ((300, 0.4, [0, 0]), (200, 0.5, [4, 1]),
                         (150, 0.3, [1, 4]), (30, 0.2, [4, 4]))]
pool = EmbeddingPool(np.vstack(blobs))
hyper = GpHyperparams(np.array([1.0, 2.0]), 1.0, np.zeros((0, 2)), np.zeros(0),
                      np.zeros(0), 1e-6)

z = scale_points(pool, hyper)
start = kmeans(z, 8, seed=0)
print("initial k-means sizes:", sorted(start.sizes().tolist()))

assign = cluster_with_merges(pool, hyper, S=3, S_hat=8, seed=0)
print("after merges to S=3:", sorted(assign.sizes().tolist()))

a, b = assign.members(0), assign.members(1)
print(f"Hausdorff distance between clusters 0 and 1: "
      f"{hausdorff_distance(z[a], z[b]):.3f}")
