import tracemalloc

import numpy as np
import pytest

import rare_sampler.clustering as clustering
from helpers import reference_cluster_with_merges, reference_kmeans, reference_sq_dists
from rare_sampler import (EmbeddingPool, GpHyperparams, InvalidInputError,
                          cluster_with_merges, hausdorff_distance, kmeans,
                          scale_points)
from rare_sampler.clustering import ClusterAssignment, _lloyd, _relabel, _sq_dists


def hyper_with_lengthscales(ls):
    ls = np.asarray(ls, dtype=float)
    return GpHyperparams(ls, 1.0, np.zeros((0, ls.size)), np.zeros(0), np.zeros(0),
                         1e-6)


class TestScalePoints:
    def test_unit_lengthscales_identity(self):
        pool = EmbeddingPool(np.arange(8.0).reshape(4, 2))
        z = scale_points(pool, hyper_with_lengthscales([1.0, 1.0]))
        np.testing.assert_array_equal(z, pool.points)

    def test_lengthscale_two_halves_coordinate(self):
        pool = EmbeddingPool(np.array([[2.0, 3.0]]))
        z = scale_points(pool, hyper_with_lengthscales([2.0, 1.0]))
        np.testing.assert_allclose(z, [[1.0, 3.0]])

    def test_ordering_matches_kernel_distance(self):
        # scaled Euclidean distance must order pairs the same way the
        # ARD kernel argument does
        rng = np.random.default_rng(0)
        pool = EmbeddingPool(rng.standard_normal((20, 2)))
        ls = np.array([0.3, 2.5])
        z = scale_points(pool, hyper_with_lengthscales(ls))
        pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        scaled = [np.linalg.norm(z[i] - z[j]) for i, j in pairs]
        kernel_arg = [np.sqrt(np.sum(((pool.points[i] - pool.points[j]) / ls) ** 2))
                      for i, j in pairs]
        np.testing.assert_allclose(scaled, kernel_arg, rtol=1e-12)


class TestSqDists:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_expression(self, dtype):
        rng = np.random.default_rng(12)
        for n, m, d in [(1, 1, 1), (7, 40, 1), (300, 500, 2), (64, 1000, 3)]:
            p = (rng.standard_normal((n, d)) * 3).astype(dtype)
            c = (rng.standard_normal((m, d)) * 3).astype(dtype)
            got = _sq_dists(p, c)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, reference_sq_dists(p, c))


class TestKmeans:
    def test_single_cluster(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((15, 2))
        assign = kmeans(pts, 1, seed=0)
        assert assign.n_clusters == 1
        assert np.all(assign.labels == 0)

    def test_singletons(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((7, 2))
        assign = kmeans(pts, 7, seed=0)
        assert assign.n_clusters == 7
        assert sorted(assign.sizes()) == [1] * 7

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((60, 2)) * 0.2 + [0, 0]
        b = rng.standard_normal((60, 2)) * 0.2 + [10, 10]
        pts = np.vstack([a, b])
        labels_true = np.array([0] * 60 + [1] * 60)
        assign = kmeans(pts, 2, seed=4)
        match = max(np.mean(assign.labels == labels_true),
                    np.mean(assign.labels == 1 - labels_true))
        assert match >= 0.99

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((50, 3))
        a = kmeans(pts, 5, seed=11)
        b = kmeans(pts, 5, seed=11)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.zeros((3, 2)), 4, seed=0)


class TestKmeansMatchesReference:
    """Lloyd's loop with hoisted point terms and label-sorted center means
    against the boolean-mask loop: bitwise-equal labels and centers."""

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_labels_and_centers_bitwise(self, d, seed):
        rng = np.random.default_rng(1000 * d + seed)
        pts = rng.standard_normal((int(rng.integers(40, 600)), d)) * rng.uniform(0.1, 10.0, d)
        for k in (1, 3, 8):
            labels, centers = _lloyd(pts, k, seed)
            want_labels, want_centers = reference_kmeans(pts, k, seed)
            np.testing.assert_array_equal(labels, want_labels)
            assert centers.tobytes() == want_centers.tobytes()
            np.testing.assert_array_equal(kmeans(pts, k, seed).labels, _relabel(want_labels))

    def test_empty_cluster_reseed_matches_reference(self, monkeypatch):
        # five distinct points repeated and k = 8: k-means++ repeats centers,
        # so clusters empty and are re-seeded
        by_label = clustering._by_label
        empty = []

        def recording_by_label(labels, k):
            empty.append(np.bincount(labels, minlength=k).min() == 0)
            return by_label(labels, k)

        monkeypatch.setattr(clustering, "_by_label", recording_by_label)
        rng = np.random.default_rng(7)
        values = rng.standard_normal((5, 3))
        for seed in range(6):
            pts = values[rng.integers(0, 5, 60)]
            labels, centers = _lloyd(pts, 8, seed)
            want_labels, want_centers = reference_kmeans(pts, 8, seed)
            np.testing.assert_array_equal(labels, want_labels)
            assert centers.tobytes() == want_centers.tobytes()
        assert any(empty)

    def test_cycling_loop_stops_with_the_full_run_result(self):
        # 20 distinct points and k = 32: the re-seeds cycle and never converge,
        # so both loops run all 100 iterations and end on the same labels and
        # centers
        rng = np.random.default_rng(11)
        values = rng.standard_normal((20, 2))
        for seed in range(3):
            pts = values[rng.integers(0, 20, 2000)]
            labels, centers = _lloyd(pts, 32, seed)
            want_labels, want_centers = reference_kmeans(pts, 32, seed)
            np.testing.assert_array_equal(labels, want_labels)
            assert centers.tobytes() == want_centers.tobytes()


class TestHausdorff:
    def test_identical_sets(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 2))
        assert hausdorff_distance(A, A) == 0.0

    def test_singletons(self):
        assert hausdorff_distance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A = rng.standard_normal((3, 2))
            B = rng.standard_normal((4, 2))
            d_ab = max(min(np.linalg.norm(a - b) for b in B) for a in A)
            d_ba = max(min(np.linalg.norm(a - b) for a in A) for b in B)
            assert hausdorff_distance(A, B) == pytest.approx(max(d_ab, d_ba), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            hausdorff_distance(np.empty((0, 2)), np.zeros((1, 2)))


def reference_merge(z, assign: ClusterAssignment, S):
    """Step-by-step independent simulation of the merge loop."""
    groups = {cid: list(np.flatnonzero(assign.labels == cid))
              for cid in range(assign.n_clusters)}
    trace = []
    while len(groups) > S:
        smallest = min(groups, key=lambda c: (len(groups[c]), c))
        best = None
        for cid, idx in groups.items():
            if cid == smallest:
                continue
            za, zb = z[groups[smallest]], z[idx]
            d = max(
                max(min(np.linalg.norm(a - b) for b in zb) for a in za),
                max(min(np.linalg.norm(a - b) for a in za) for b in zb),
            )
            if best is None or (d, cid) < best:
                best = (d, cid)
        trace.append((smallest, best[1]))
        groups[best[1]] = sorted(groups[best[1]] + groups[smallest])
        del groups[smallest]
    labels = np.empty(len(z), dtype=int)
    for cid, idx in groups.items():
        labels[idx] = cid
    return labels, trace


class TestClusterWithMerges:
    def test_s_hat_equal_s_is_plain_kmeans(self):
        rng = np.random.default_rng(8)
        pool = EmbeddingPool(rng.standard_normal((40, 2)))
        h = hyper_with_lengthscales([1.0, 1.0])
        merged = cluster_with_merges(pool, h, S=4, S_hat=4, seed=9)
        plain = kmeans(scale_points(pool, h), 4, seed=9)
        # same partition up to labeling, and labels are first-appearance ordered
        np.testing.assert_array_equal(merged.labels, plain.labels)

    def test_merge_to_single_cluster(self):
        rng = np.random.default_rng(9)
        pool = EmbeddingPool(rng.standard_normal((25, 2)))
        assign = cluster_with_merges(pool, hyper_with_lengthscales([1.0, 1.0]),
                                     S=1, S_hat=5, seed=0)
        assert assign.n_clusters == 1
        assert assign.sizes()[0] == 25

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_simulation(self, seed):
        rng = np.random.default_rng(40 + seed)
        pool = EmbeddingPool(rng.standard_normal((30, 2)))
        h = hyper_with_lengthscales([0.8, 1.7])
        z = scale_points(pool, h)
        S, S_hat = 3, 7
        start = kmeans(z, S_hat, seed=seed)
        ref_labels, trace = reference_merge(z, start, S)
        got = cluster_with_merges(pool, h, S=S, S_hat=S_hat, seed=seed)
        # compare partitions (labels may be renumbered)
        ref_groups = {tuple(np.flatnonzero(ref_labels == c))
                      for c in np.unique(ref_labels)}
        got_groups = {tuple(got.members(c)) for c in range(got.n_clusters)}
        assert ref_groups == got_groups
        assert len(trace) == S_hat - S

    def test_partition_invariants(self):
        rng = np.random.default_rng(10)
        pool = EmbeddingPool(rng.standard_normal((60, 3)))
        h = hyper_with_lengthscales([1.0, 1.0, 1.0])
        assign = cluster_with_merges(pool, h, S=5, S_hat=10, seed=3)
        assert assign.n_clusters == 5
        assert assign.sizes().sum() == 60
        assert np.all(assign.sizes() > 0)

    # (S, S_hat) per pool size: S == S_hat, S = 1, and S_hat - S >= 4
    MERGE_CASES = {2: [(1, 1), (2, 2), (1, 2)], 30: [(3, 3), (1, 6), (2, 7)],
                   1000: [(4, 4), (1, 5), (2, 8)], 6000: [(1, 5), (6, 12)]}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", sorted(MERGE_CASES))
    def test_matches_gather_reference(self, n, d):
        rng = np.random.default_rng(100 * n + d)
        h = hyper_with_lengthscales(rng.uniform(0.3, 3.0, d))
        raw = rng.standard_normal((n, d)) * 2.0
        # rounding to 0.1 makes points repeat
        for points in (raw, np.round(raw, 1)):
            pool = EmbeddingPool(points)
            for k, (S, S_hat) in enumerate(self.MERGE_CASES[n]):
                want = reference_cluster_with_merges(pool, h, S, S_hat, seed=k)
                got = cluster_with_merges(pool, h, S=S, S_hat=S_hat, seed=k)
                np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_tiles_give_the_same_labels(self, monkeypatch, d, rows):
        # a merge's distance tiles hold `rows` rows of the smallest cluster
        n = 1000
        rng = np.random.default_rng(700 + d)
        h = hyper_with_lengthscales(rng.uniform(0.3, 3.0, d))
        raw = rng.standard_normal((n, d)) * 2.0
        monkeypatch.setattr(clustering, "_MERGE_TILE_BYTES", 4 * n * rows)
        for points in (raw, np.round(raw, 1)):
            pool = EmbeddingPool(points)
            for k, (S, S_hat) in enumerate(self.MERGE_CASES[n]):
                want = reference_cluster_with_merges(pool, h, S, S_hat, seed=k)
                got = cluster_with_merges(pool, h, S=S, S_hat=S_hat, seed=k)
                np.testing.assert_array_equal(got.labels, want.labels)

    def test_peak_memory_is_one_distance_tile(self, monkeypatch):
        rng = np.random.default_rng(13)
        pool = EmbeddingPool(rng.standard_normal((6000, 2)))
        h = hyper_with_lengthscales([0.7, 1.3])
        block_rows = []

        def recording_sq_dists(points, centers):
            if points.dtype == np.float32:
                block_rows.append(points.shape[0])
            return _sq_dists(points, centers)

        monkeypatch.setattr(clustering, "_sq_dists", recording_sq_dists)
        tracemalloc.start()
        try:
            cluster_with_merges(pool, h, S=6, S_hat=12, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tile = clustering._MERGE_TILE_BYTES // (4 * pool.n_points)
        # six merges, some in several tiles; a trailing single row joins the
        # tile before it
        assert len(block_rows) > 6
        assert max(block_rows) <= tile + 1
        assert peak <= 1.25 * max(block_rows) * pool.n_points * 4

    def test_merge_memory_stays_within_the_tile_budget(self):
        rng = np.random.default_rng(14)
        n = 8000
        pool = EmbeddingPool(rng.standard_normal((n, 2)))
        h = hyper_with_lengthscales([0.7, 1.3])
        tracemalloc.start()
        try:
            assign = cluster_with_merges(pool, h, S=2, S_hat=4, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert assign.n_clusters == 2
        # one distance tile plus O(N): scaled points, k-means distances and
        # labels, sort orders and the column minima; a whole |A| x N block
        # of the smaller cluster (about 2000 rows) took 64 MB
        assert peak <= clustering._MERGE_TILE_BYTES + 128 * n

    def test_bad_cluster_counts_rejected(self):
        pool = EmbeddingPool(np.random.default_rng(0).standard_normal((10, 2)))
        h = hyper_with_lengthscales([1.0, 1.0])
        with pytest.raises(InvalidInputError):
            cluster_with_merges(pool, h, S=5, S_hat=3, seed=0)


class TestShortKmeans:
    """k-means can return fewer than S_hat clusters when points repeat; the
    merges then stop at S clusters instead of making S_hat - S merges."""

    @staticmethod
    def four_value_pool():
        rng = np.random.default_rng(0)
        values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        return EmbeddingPool(values[rng.integers(0, 4, 40)])

    def test_three_identical_points(self):
        pool = EmbeddingPool(np.zeros((3, 2)))
        h = hyper_with_lengthscales([1.0, 1.0])
        assign = cluster_with_merges(pool, h, S=1, S_hat=3, seed=0)
        np.testing.assert_array_equal(assign.labels, [0, 0, 0])
        assert cluster_with_merges(pool, h, S=2, S_hat=3, seed=0).n_clusters <= 2

    @pytest.mark.parametrize("seed", range(5))
    def test_four_distinct_values_partition(self, seed):
        pool = self.four_value_pool()
        h = hyper_with_lengthscales([1.0, 1.0])
        assert kmeans(scale_points(pool, h), 8, seed=seed).n_clusters < 8
        assign = cluster_with_merges(pool, h, S=3, S_hat=8, seed=seed)
        assert 1 <= assign.n_clusters <= 3
        assert set(assign.labels.tolist()) == set(range(assign.n_clusters))
        assert assign.sizes().sum() == pool.n_points

    def test_reference_agrees_when_kmeans_is_full(self):
        rng = np.random.default_rng(31)
        h = hyper_with_lengthscales([1.0, 1.0])
        full = short = 0
        for seed in range(40):
            # a few distinct values repeated: k-means is short on some pools
            values = rng.standard_normal((int(rng.integers(3, 9)), 2))
            pool = EmbeddingPool(values[rng.integers(0, len(values),
                                                     int(rng.integers(12, 60)))])
            S_hat = int(rng.integers(3, 9))
            S = int(rng.integers(1, S_hat + 1))
            got = cluster_with_merges(pool, h, S=S, S_hat=S_hat, seed=seed)
            assert got.n_clusters <= S
            if kmeans(scale_points(pool, h), S_hat, seed=seed).n_clusters < S_hat:
                short += 1
                continue
            full += 1
            want = reference_cluster_with_merges(pool, h, S, S_hat, seed=seed)
            np.testing.assert_array_equal(got.labels, want.labels)
        assert full >= 10 and short >= 1


class TestMergeTieBreaks:
    """Tight groups on an integer lattice, with unit lengthscales: every
    squared distance is a small dyadic number, exact in float32, so the ties
    below are exact."""

    CROSS = np.array([[0.0, 0.0], [0.25, 0.0], [-0.25, 0.0], [0.0, 0.25], [0.0, -0.25]])

    @classmethod
    def group(cls, node, size):
        # a cross of 5 points around node, its centre repeated up to size
        extra = np.repeat(cls.CROSS[:1], size - len(cls.CROSS), axis=0)
        return np.vstack([cls.CROSS, extra]) + np.asarray(node, dtype=float)

    @staticmethod
    def partition(labels, sizes):
        # group g is the g-th run of rows; return the merged groups as sets
        owner = np.repeat(np.arange(len(sizes)), sizes)
        return {frozenset(owner[labels == c].tolist()) for c in np.unique(labels)}

    def merged(self, nodes, sizes, S):
        pool = EmbeddingPool(np.vstack([self.group(p, m) for p, m in zip(nodes, sizes)]))
        h = hyper_with_lengthscales([1.0, 1.0])
        start = kmeans(scale_points(pool, h), len(nodes), seed=0)
        assert self.partition(start.labels, sizes) == {frozenset([g]) for g in
                                                        range(len(nodes))}
        out = cluster_with_merges(pool, h, S=S, S_hat=len(nodes), seed=0)
        return self.partition(out.labels, sizes)

    def test_equal_smallest_sizes_merge_lower_id_first(self):
        # groups 0 and 1 share the smallest size; each has its own nearest
        # neighbor, so the single merge shows which one went first
        nodes = [(0, 0), (40, 0), (-10, 0), (50, 0)]
        sizes = [5, 5, 8, 8]
        assert self.merged(nodes, sizes, S=3) == {frozenset([0, 2]), frozenset([1]),
                                                  frozenset([3])}
        swapped = [nodes[1], nodes[0]] + nodes[2:]
        assert self.merged(swapped, sizes, S=3) == {frozenset([0, 3]), frozenset([1]),
                                                    frozenset([2])}

    @pytest.mark.parametrize("first", [(-10, 0), (10, 0)])
    def test_equidistant_neighbors_absorb_into_lower_id(self, first):
        # group 2 at the origin is exactly as far from (-10, 0) as from (10, 0)
        second = (-first[0], 0)
        assert self.merged([first, second, (0, 0)], [8, 8, 5], S=2) == {
            frozenset([0, 2]), frozenset([1])}


class TestRelabel:
    @staticmethod
    def loop_relabel(labels):
        mapping = {}
        return np.array([mapping.setdefault(int(lab), len(mapping)) for lab in labels],
                        dtype=np.intp)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_first_appearance_loop(self, seed):
        rng = np.random.default_rng(seed)
        for size, n_labels in [(1, 1), (7, 3), (200, 12), (1000, 40)]:
            labels = rng.integers(-5, n_labels * 3, size).astype(np.intp)
            out = _relabel(labels)
            np.testing.assert_array_equal(out, self.loop_relabel(labels))
            assert out.dtype == np.intp
