"""Lengthscale-scaled K-means with iterative smallest-cluster merges.

Selection cost scales with the squared cluster size, so the pool is
partitioned into S independent selection problems.  Rescaling each
dimension by the trained level-0 lengthscale makes Euclidean distance a
cheap stand-in for kernel distance.  K-means first over-segments into
S_hat > S clusters; the smallest cluster is then repeatedly merged into
its nearest neighbor under the Hausdorff set distance until at most S
remain.  The merges work on the points ordered by k-means label: a merged
cluster is a list of contiguous k-means blocks, and each merge builds its
distance block in row tiles of a fixed byte budget and reduces each tile
per k-means block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .gp import GpHyperparams
from .pool import EmbeddingPool

_KMEANS_MAX_ITER = 100

# Bytes of one float32 distance tile of a merge: the smallest cluster's rows
# are taken this many bytes' worth of pool columns at a time, so a merge's
# working memory is this budget plus O(N), not |A| x N.
_MERGE_TILE_BYTES = 8 << 20


@dataclass(frozen=True)
class ClusterAssignment:
    """Cluster id per point; ids are dense in 0..n_clusters-1."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.intp)
        uniq = np.unique(labels)
        if not np.array_equal(uniq, np.arange(uniq.size)):
            raise InvalidInputError("cluster labels must be dense from 0")
        object.__setattr__(self, "labels", labels)

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)

    def members(self, cluster_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


def scale_points(pool: EmbeddingPool, hyper: GpHyperparams) -> np.ndarray:
    """Divide each coordinate by the trained level-0 lengthscale."""
    return pool.points / hyper.lengthscales


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """|p|^2 - 2 p.c + |c|^2 in one output array, in the order of the plain
    expression, so every entry is bitwise equal to it."""
    return _sq_dists_to(2.0 * points, np.sum(points * points, axis=1)[:, None], centers)


def _sq_dists_to(twice_points: np.ndarray, point_norms: np.ndarray,
                 centers: np.ndarray) -> np.ndarray:
    """``_sq_dists`` from 2 * points and the (n, 1) squared point norms, which
    k-means computes once for all its distance passes."""
    out = np.matmul(twice_points, centers.T)
    np.subtract(point_norms, out, out=out)
    out += np.sum(centers * centers, axis=1)[None, :]
    return out


def _kmeans_pp_init(points: np.ndarray, twice_points: np.ndarray,
                    point_norms: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.maximum(_sq_dists_to(twice_points, point_norms, centers[:1]).ravel(), 0.0)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = points[rng.integers(n)]
            continue
        centers[j] = points[np.searchsorted(np.cumsum(d2), rng.random() * total)]
        d2 = np.minimum(d2, np.maximum(
            _sq_dists_to(twice_points, point_norms, centers[j:j + 1]).ravel(), 0.0))
    return centers


def _by_label(labels: np.ndarray, k: int):
    """The point order that groups the labels stably, and each label's
    (start, end) slice of it."""
    counts = np.bincount(labels, minlength=k)
    ends = np.cumsum(counts)
    # equal keys keep point order, so a small key type sorts the same
    # (and by radix)
    keys = labels.astype(np.uint16) if k <= 1 << 16 else labels
    return np.argsort(keys, kind="stable"), (ends - counts).tolist(), ends.tolist()


def kmeans(points: np.ndarray, k: int, seed) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ seeding on pre-scaled points.

    Converges when assignments stabilize or after 100 iterations; an
    emptied cluster, in id order, is re-seeded to the point farthest from
    its center.  Each center is the mean of its points' rows gathered in
    point order, the array ``points[labels == j]``, so it is bitwise that
    array's mean.
    """
    return ClusterAssignment(_relabel(_lloyd(points, k, seed)[0]))


def _lloyd(points: np.ndarray, k: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """``kmeans`` before relabelling: the labels and the final centers."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    twice = 2.0 * points
    norms = np.sum(points * points, axis=1)[:, None]
    centers = _kmeans_pp_init(points, twice, norms, k, rng)
    labels = np.full(n, -1, dtype=np.intp)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = _sq_dists_to(twice, norms, centers)
        new_labels = np.argmin(d2, axis=1)
        order, starts, ends = _by_label(new_labels, k)
        for j in range(k):
            if starts[j] == ends[j]:
                worst = int(np.argmax(d2[np.arange(n), new_labels]))
                new_labels[worst] = j
                order, starts, ends = _by_label(new_labels, k)
            centers[j] = points[order[starts[j]:ends[j]]].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


def _relabel(labels: np.ndarray) -> np.ndarray:
    """Dense labels, numbered by first appearance in point order."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def hausdorff_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two nonempty point sets."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[0] == 0 or B.shape[0] == 0:
        raise InvalidInputError("Hausdorff distance needs nonempty sets")
    # lazy: a top-level scipy.spatial import adds about 37 ms to every import
    from scipy.spatial.distance import directed_hausdorff

    return float(max(directed_hausdorff(A, B)[0], directed_hausdorff(B, A)[0]))


def cluster_with_merges(pool: EmbeddingPool, hyper: GpHyperparams, S: int,
                        S_hat: int, seed) -> ClusterAssignment:
    """K-means into S_hat clusters, then merge the smallest cluster into its
    Hausdorff-nearest neighbor until at most S remain (fewer only when
    k-means returns fewer than S clusters on a pool with repeated points).

    Ties (smallest size, nearest distance) break on lowest cluster id.
    The points are sorted by k-means label once, so each k-means cluster is
    a contiguous block and a merged cluster is a list of blocks.  Each merge
    computes float32 squared distances from the smallest cluster to all
    points, in tiles of its rows of about ``_MERGE_TILE_BYTES``, and
    reduces them per k-means block with ``reduceat``: row minima
    (|A| x S_hat) per tile, a running minimum over the tiles of the column
    minima (N), and the maxima of those per block (S_hat).  Min and max are
    exact, so every comparison sees the values an untiled, per-neighbor
    pass over the same distances would.
    """
    if not 1 <= S <= S_hat <= pool.n_points:
        raise InvalidInputError("need 1 <= S <= S_hat <= N")
    z = scale_points(pool, hyper)
    block_of = kmeans(z, S_hat, seed).labels
    z32 = z[np.argsort(block_of, kind="stable")].astype(np.float32)
    counts = np.bincount(block_of)
    # dense labels: every block is nonempty, so starts rise strictly
    ends = np.cumsum(counts)
    starts = ends - counts
    tile = max(1, _MERGE_TILE_BYTES // (4 * len(z32)))  # float32 rows per tile
    groups: dict[int, list[int]] = {j: [j] for j in range(counts.size)}
    while len(groups) > S:
        smallest = min(groups, key=lambda c: (int(counts[groups[c]].sum()), c))
        a = np.concatenate([z32[starts[b]:ends[b]] for b in groups[smallest]])
        # squared distances preserve the min/max ordering; sqrt only at the end
        row_min = np.empty((len(a), counts.size), dtype=np.float32)
        col_min = np.full(len(z32), np.inf, dtype=np.float32)
        cuts = list(range(0, len(a), tile)) + [len(a)]
        if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
            # a one-row product takes numpy's matrix-vector path, whose last
            # bits differ from the GEMM's: the previous tile takes the row
            del cuts[-2]
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            d2 = _sq_dists(a[r0:r1], z32)
            np.maximum(d2, 0.0, out=d2)
            row_min[r0:r1] = np.minimum.reduceat(d2, starts, axis=1)
            np.minimum(col_min, d2.min(axis=0), out=col_min)
            del d2  # free this tile before the next one allocates its own
        col_max = np.maximum.reduceat(col_min, starts)
        best = None
        for cid, blocks in groups.items():
            if cid == smallest:
                continue
            dist2 = max(float(row_min[:, blocks].min(axis=1).max()),
                        float(col_max[blocks].max()))
            if best is None or (dist2, cid) < best:
                best = (dist2, cid)
        groups[best[1]] += groups.pop(smallest)
    group_of = np.empty(counts.size, dtype=np.intp)
    for cid, blocks in groups.items():
        group_of[blocks] = cid
    return ClusterAssignment(_relabel(group_of[block_of]))
