"""Best-first k-nearest-neighbour search over the R-tree family.

An alternative to Algorithm 3 for answering top-k queries: instead of
the paper's iteratively shrinking rectangle region, this is the classic
Hjaltason–Samet incremental NN algorithm — a priority queue over tree
entries ordered by the minimum S2 distance from the query point, popping
entries best-first and emitting points in increasing S2 distance.

Because S2 distances are JL *estimates* of the true S1 distances, an
exact-in-S2 kNN is still approximate in S1; retrieving ``c * k``
neighbours in S2 and re-ranking them by S1 distance recovers accuracy
(``oversample`` below). The ablation benchmark
(``benchmarks/bench_ext_knn_vs_alg3.py``) compares this approach against
Algorithm 3: best-first kNN examines fewer points, but Algorithm 3's
region is exactly what the cracking index needs for its cost model, and
its radius carries the Theorem 2/3 guarantees.

Note this search does NOT crack the index (it has no rectangular query
region to crack for); pair it with an explicit ``refine`` if desired.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.errors import IndexError_
from repro.index.geometry import row_distances
from repro.index.node import InternalNode, LeafNode
from repro.index.rtree_base import RTreeBase


def knn_search(
    tree: RTreeBase,
    point: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] = frozenset(),
) -> list[tuple[int, float]]:
    """The ``k`` ids nearest to ``point`` in S2, best-first.

    Returns ``(id, s2_distance)`` pairs in increasing distance. Frontier
    partitions are scanned wholesale when reached (they have no finer
    structure to descend into — by design of the cracking index).
    """
    if k < 1:
        raise IndexError_("k must be >= 1")
    point = np.asarray(point, dtype=np.float64)
    counter = itertools.count()
    heap: list = [(0.0, next(counter), "entry", tree.root)]
    best: list[tuple[float, int]] = []  # max-heap via negation

    def kth() -> float:
        return -best[0][0] if len(best) >= k else np.inf

    while heap:
        dist, _, kind, payload = heapq.heappop(heap)
        if dist > kth():
            break
        if kind == "point":
            ident = int(payload)
            if ident in exclude:
                continue
            if len(best) < k:
                heapq.heappush(best, (-dist, ident))
            elif dist < -best[0][0]:
                heapq.heapreplace(best, (-dist, ident))
            continue
        entry = payload
        if isinstance(entry, InternalNode):
            tree.counters.internal_accesses += 1
            for child in entry.entries:
                child_dist = child.mbr.min_dist_to_point(point)
                if child_dist <= kth():
                    heapq.heappush(heap, (child_dist, next(counter), "entry", child))
        else:
            ids = entry.ids if isinstance(entry, LeafNode) else entry.partition.ids
            if isinstance(entry, LeafNode):
                tree.counters.leaf_accesses += 1
            else:
                tree.counters.partition_accesses += 1
            tree.counters.points_examined += len(ids)
            dists = row_distances(tree.store.coords, point, ids)
            for ident, d in zip(ids, dists):
                if d <= kth():
                    heapq.heappush(heap, (float(d), next(counter), "point", int(ident)))
    result = [(ident, -neg) for neg, ident in best]
    result.sort(key=lambda pair: (pair[1], pair[0]))
    return result


def knn_topk_s1(
    tree: RTreeBase,
    s1_vectors: np.ndarray,
    transform,
    query_point_s1: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] = frozenset(),
    oversample: int = 4,
) -> list[tuple[int, float]]:
    """Top-k by *S1* distance using best-first S2 kNN + re-ranking.

    Retrieves ``oversample * k`` nearest points in S2, computes their
    true S1 distances, and returns the best ``k`` — the standard
    LSH-style recipe for querying through a distance-distorting
    projection. Returns ``(id, s1_distance)`` pairs.
    """
    if oversample < 1:
        raise IndexError_("oversample must be >= 1")
    query_point_s1 = np.asarray(query_point_s1, dtype=np.float64)
    q2 = transform(query_point_s1)
    candidates = knn_search(tree, q2, oversample * k, exclude)
    if not candidates:
        return []
    ids = np.array([ident for ident, _ in candidates])
    s1_dists = row_distances(s1_vectors, query_point_s1, ids)
    order = np.argsort(s1_dists)[:k]
    return [(int(ids[i]), float(s1_dists[i])) for i in order]
