"""The no-index baseline: iterate over every entity per query.

This is "what one would do without our work" (Section VI): the
prediction algorithm ``A`` is treated as an oracle and each candidate
entity is scored on the fly. Scoring honestly happens one entity at a
time (a Python-level loop calling the model), because that is the access
pattern of a system without an index over an opaque predictor — the
whole motivation of the paper. A vectorised fast path is available for
tests and for computing ground-truth rankings cheaply.

:func:`exact_topk` is the one vectorised exact scan: the vectorised
:class:`ExhaustiveScan`, :meth:`repro.query.engine.QueryEngine.exhaustive`
and the degradation ladder's linear rung all run it. Every exact answer,
including the per-entity loop, ranks by ``(distance, id)``, the order
:func:`repro.shard.merge.merge_topk` merges shard answers in.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import IndexError_
from repro.index.geometry import row_distances
from repro.index.stats import AccessCounters


def exact_topk(
    vectors: np.ndarray,
    query_point: np.ndarray,
    k: int,
    exclude=frozenset(),
    allowed=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` rows of ``vectors`` nearest to ``query_point``.

    Returns ``(ids, distances)`` ordered by ``(distance, id)``, skipping
    the ids in ``exclude`` and, when ``allowed`` is given, every id not
    in it. Fewer than ``k`` ids come back when fewer remain.
    """
    dists = row_distances(vectors, np.asarray(query_point, dtype=np.float64))
    if exclude:
        dists[np.fromiter(exclude, dtype=np.int64, count=len(exclude))] = np.inf
    if allowed is not None:
        keep = np.zeros(len(dists), dtype=bool)
        keep[np.fromiter(allowed, dtype=np.int64, count=len(allowed))] = True
        dists[~keep] = np.inf
    take = min(k, len(dists))
    # Every id tied with the k-th distance is a candidate; a stable sort
    # of the ascending candidate ids breaks those ties by id.
    kth = np.partition(dists, take - 1)[take - 1]
    candidates = np.flatnonzero(dists <= kth)
    order = candidates[np.argsort(dists[candidates], kind="stable")[:take]]
    order = order[np.isfinite(dists[order])]
    return order, dists[order]


class ExhaustiveScan:
    """Top-k by scanning all entity vectors in the original space S1."""

    def __init__(self, entity_vectors: np.ndarray, vectorized: bool = False) -> None:
        vectors = np.asarray(entity_vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) == 0:
            raise IndexError_("entity_vectors must be a non-empty (n, d) array")
        self._vectors = vectors
        self.vectorized = vectorized
        self.counters = AccessCounters()

    @property
    def size(self) -> int:
        return len(self._vectors)

    def topk(
        self, query_point: np.ndarray, k: int, exclude: set[int] | frozenset[int] = frozenset()
    ) -> list[tuple[int, float]]:
        """The ``k`` entities nearest to ``query_point`` in S1.

        Returns ``(entity_id, distance)`` pairs in increasing distance,
        skipping ``exclude`` (the known E-neighbours and the query
        entity itself).
        """
        if k < 1:
            raise IndexError_("k must be >= 1")
        query_point = np.asarray(query_point, dtype=np.float64)
        if self.vectorized:
            return self._topk_vectorized(query_point, k, exclude)
        return self._topk_scan(query_point, k, exclude)

    def _topk_scan(
        self, query_point: np.ndarray, k: int, exclude: set[int] | frozenset[int]
    ) -> list[tuple[int, float]]:
        heap: list[tuple[float, int]] = []  # max-heap via negated (distance, id)
        for entity in range(len(self._vectors)):
            self.counters.points_examined += 1
            if entity in exclude:
                continue
            diff = self._vectors[entity] - query_point
            dist = float(np.sqrt(diff @ diff))
            # The heap root is the worst kept entry by (distance, id);
            # ids arrive ascending, so a tie never displaces it.
            if len(heap) < k:
                heapq.heappush(heap, (-dist, -entity))
            elif -heap[0][0] > dist:
                heapq.heapreplace(heap, (-dist, -entity))
        result = [(-neg_entity, -neg) for neg, neg_entity in heap]
        result.sort(key=lambda pair: (pair[1], pair[0]))
        return result

    def _topk_vectorized(
        self, query_point: np.ndarray, k: int, exclude: set[int] | frozenset[int]
    ) -> list[tuple[int, float]]:
        self.counters.points_examined += len(self._vectors)
        ids, dists = exact_topk(self._vectors, query_point, k, exclude)
        return list(zip(ids.tolist(), dists.tolist()))
