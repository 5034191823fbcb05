"""Exact k-way merge of per-shard top-k results.

Each shard runs :func:`~repro.query.topk.find_topk` over its own id
subset: every candidate inside the region that shard examined is
re-ranked by its exact S1 distance, but a shard's answer equals the
exhaustive answer over its subset only when that region covers the
subset's true top-k. Theorem 2 bounds the probability that it does not
(:func:`repro.transform.bounds.topk_no_miss_probability`); the miss
probability vanishes as ``epsilon`` grows, and on the test datasets
every shard is exhaustive at ``epsilon=1.0``.

The merge itself is exact: the result is the k smallest of the union of
per-shard answers, with ``final_radius`` (``kth * (1 + epsilon)``) and
``query_region`` (``ball_box(q2, r)``) rebuilt around the merged kth
distance. It therefore equals the single-tree answer whenever both
equal the exhaustive one; below ``epsilon=1`` the two can differ,
because each shard seeds, shrinks and examines its own region.
``points_examined`` always sums over shards.
"""

from __future__ import annotations

import numpy as np

from repro.index.geometry import Rect
from repro.query.topk import TopKResult


def merge_topk(
    parts: list[TopKResult],
    k: int,
    epsilon: float,
    q2: np.ndarray,
) -> TopKResult:
    """Merge per-shard results into the global :class:`TopKResult`.

    ``q2`` is the projected query point (needed to rebuild the final
    query region around the merged kth distance). Ties in distance
    break by entity id so the merge is deterministic in the shard
    count and order.
    """
    points_examined = int(sum(p.points_examined for p in parts))
    non_empty = [p for p in parts if p.entities]
    if not non_empty:
        return TopKResult((), (), points_examined, float("inf"), None)
    ids = np.concatenate(
        [np.asarray(p.entities, dtype=np.int64) for p in non_empty]
    )
    dists = np.concatenate(
        [np.asarray(p.distances, dtype=np.float64) for p in non_empty]
    )
    order = np.lexsort((ids, dists))[:k]
    ids = ids[order]
    dists = dists[order]
    kth = float(dists[min(k, len(dists)) - 1])
    radius = kth * (1.0 + epsilon)
    region = Rect.ball_box(np.asarray(q2, dtype=np.float64), radius)
    return TopKResult(
        entities=tuple(int(e) for e in ids),
        distances=tuple(float(d) for d in dists),
        points_examined=points_examined,
        final_radius=radius,
        query_region=region,
    )
