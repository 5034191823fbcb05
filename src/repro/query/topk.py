"""``FINDTOP-KENTITIES`` (Algorithm 3): top-k predictive entity queries.

Given a query point in the embedding space S1 (``h + r`` for tails,
``t - r`` for heads), the algorithm:

1. probes the index for the smallest element containing the projected
   query point ``q`` in S2 and seeds ``k`` candidates from it;
2. sets the query radius ``r_q = r_k* (1 + epsilon)`` where ``r_k*`` is
   the k-th smallest *S1* distance among the candidates seen so far and
   ``epsilon`` trades accuracy (Theorem 2) for work (Theorem 3);
3. examines the data points inside the box of ``B(q, r_q)`` in
   increasing S2 distance, re-ranking each by its true S1 distance and
   shrinking ``r_q`` (hence the region) as better candidates appear —
   processed in vectorised chunks so the examination cost is a few
   numpy operations per chunk rather than per point;
4. cracks the index for the final region (the greedy incremental build
   or Algorithm 2's A* search, depending on the index variant).

Because the region only ever shrinks, every point of every later region
is already contained in the first region's search result, so a single
index search suffices; the iterative refinement of the paper's lines 5-8
happens over that candidate list.

Entities in ``exclude`` (known E-neighbours of the query entity, plus
the entity itself) are skipped: the query semantics cover only the
predicted edge set E'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.index.geometry import Rect
from repro.obs import trace

#: Candidates examined per vectorised batch in the refinement loop.
_CHUNK = 64


@dataclass(frozen=True, slots=True)
class TopKResult:
    """Result of one top-k entity query."""

    entities: tuple[int, ...]
    distances: tuple[float, ...]  # S1 distances, increasing
    points_examined: int
    final_radius: float
    query_region: Rect | None

    def __len__(self) -> int:
        return len(self.entities)

    @property
    def kth_distance(self) -> float:
        return self.distances[-1] if self.distances else float("inf")


def find_topk(
    index,
    s1_vectors: np.ndarray,
    transform,
    query_point_s1: np.ndarray,
    k: int,
    exclude: set[int] | frozenset[int] = frozenset(),
    epsilon: float = 0.5,
    refine_index: bool = True,
    allowed: frozenset[int] | None = None,
) -> TopKResult:
    """Run Algorithm 3 against ``index``.

    Parameters
    ----------
    index:
        Any R-tree variant exposing ``probe`` / ``search`` / ``refine``
        over a shared :class:`~repro.index.store.PointStore`.
    s1_vectors:
        The ``(n, d)`` entity matrix in the original space S1.
    transform:
        The JL transform mapping S1 vectors (and the query point) to S2.
    query_point_s1:
        The S1 query center (``h + r`` or ``t - r``).
    k:
        Number of results requested.
    exclude:
        Entity ids never returned (known neighbours, the query entity).
    epsilon:
        Radius inflation; larger widens the region (higher recall, more
        work). Theorems 2-3 quantify both directions.
    refine_index:
        Whether to crack the index for the final region (line 9). Static
        indices ignore the call anyway; disable to measure pure search.
    allowed:
        Optional whitelist of candidate entities (e.g. all entities of
        one type, for type-filtered queries); None means everyone.
    """
    if k < 1:
        raise QueryError("k must be >= 1")
    if epsilon < 0:
        raise QueryError("epsilon must be non-negative")
    with trace.span("query.topk") as sp:
        result = _find_topk(
            index, s1_vectors, transform, query_point_s1, k,
            exclude, epsilon, refine_index, allowed, sp,
        )
        if sp.is_recording:
            sp.set_attribute("k", k)
            sp.set_attribute("returned", len(result))
            sp.set_attribute("points_examined", result.points_examined)
            sp.set_attribute("final_radius", round(result.final_radius, 6))
    return result


def _find_topk(
    index,
    s1_vectors: np.ndarray,
    transform,
    query_point_s1: np.ndarray,
    k: int,
    exclude,
    epsilon: float,
    refine_index: bool,
    allowed: frozenset[int] | None,
    sp,
) -> TopKResult:
    query_point_s1 = np.asarray(query_point_s1, dtype=np.float64)
    q2 = transform(query_point_s1)

    best_ids = np.empty(0, dtype=np.int64)
    best_dists = np.empty(0, dtype=np.float64)
    points_examined = 0
    # The excluded ids, then every seed already examined.
    seen = np.fromiter(exclude, dtype=np.int64, count=len(exclude))
    permit = (
        None if allowed is None
        else np.fromiter(allowed, dtype=np.int64, count=len(allowed))
    )

    def merge(ids: np.ndarray) -> None:
        """Examine ``ids`` by exact S1 distance into the top-k."""
        nonlocal best_ids, best_dists, points_examined
        if len(ids) == 0:
            return
        points_examined += len(ids)
        dists = np.linalg.norm(s1_vectors[ids] - query_point_s1, axis=1)
        if len(best_dists) == k and not (dists < best_dists[-1]).any():
            return  # the stable sort below would keep the current top-k
        all_ids = np.concatenate([best_ids, ids])
        all_dists = np.concatenate([best_dists, dists])
        order = np.argsort(all_dists, kind="stable")[:k]
        best_ids = all_ids[order]
        best_dists = all_dists[order]

    def unseen(ids) -> np.ndarray:
        """``ids`` minus the excluded ids and the seeds already examined."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and len(seen):
            ids = ids[~np.isin(ids, seen)]
        return ids

    def permitted(ids: np.ndarray) -> np.ndarray:
        if permit is not None and len(ids):
            ids = ids[np.isin(ids, permit)]
        return ids

    # Line 2: probe for the k seed points near q in S2, widening until
    # enough non-excluded candidates are seeded (or the probe saturates).
    probe_size = k
    probe_rounds = 0
    while True:
        seeds = unseen(index.probe(q2, probe_size))
        seen = np.concatenate([seen, seeds])
        probe_rounds += 1
        merge(permitted(seeds))
        if len(best_ids) >= k or probe_size >= len(s1_vectors):
            break
        probe_size = min(probe_size * 4, len(s1_vectors))
    seeded = points_examined
    sp.set_attribute("seeds", seeded)
    sp.set_attribute("probe_rounds", probe_rounds)

    if len(best_ids) == 0:
        return TopKResult((), (), points_examined, float("inf"), None)

    def current_radius() -> float:
        return float(best_dists[min(k, len(best_dists)) - 1]) * (1.0 + epsilon)

    # Lines 3-8: one index search of the initial (largest) region, then
    # iterative radius refinement over its candidates in S2 order, in
    # chunks tested against the current region's box.
    radius = current_radius()
    region = Rect.ball_box(q2, radius)
    candidates = permitted(unseen(index.search(region)))
    if len(candidates) > 0:
        points = index.store.points_of(candidates)
        order = np.argsort(np.linalg.norm(points - q2, axis=1))
        candidates = candidates[order]
        points = points[order]
        for start in range(0, len(candidates), _CHUNK):
            chunk = points[start : start + _CHUNK]
            in_region = ((chunk >= region.lower) & (chunk <= region.upper)).all(axis=1)
            merge(candidates[start : start + _CHUNK][in_region])
            new_radius = current_radius()
            if new_radius < radius:
                radius = new_radius
                region = Rect.ball_box(q2, radius)
    sp.set_attribute("candidates", len(candidates))
    # Every candidate outside the region when its chunk came up.
    sp.set_attribute("pruned", len(candidates) - (points_examined - seeded))

    # Line 9: crack the index for the final query region.
    if refine_index:
        index.refine(region)

    return TopKResult(
        entities=tuple(int(e) for e in best_ids),
        distances=tuple(float(d) for d in best_dists),
        points_examined=points_examined,
        final_radius=radius,
        query_region=region,
    )
