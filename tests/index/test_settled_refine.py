"""Refinement memos of the R-tree: settled subtrees and the id cache.

Once every frontier partition beneath a node holds at most
``leaf_capacity`` points, the stopping condition holds for each of them
whatever the query, so a query refinement skips the node without a walk.
The offline ``refine(None)`` still expands every frontier. The ids
beneath a node are cached until a split, insert or delete reorders them.
"""

import numpy as np
import pytest

from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.geometry import Rect
from repro.index.node import InternalNode
from repro.index.store import PointStore
from repro.index.topk_splits import TopKSplitsRTree
from repro.index.validation import check_invariants

LEAF = 16
CRACKING = (CrackingRTree, TopKSplitsRTree)


def _tree(cls, seed=0, n=800):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    return cls(PointStore(points), leaf_capacity=LEAF, fanout=4), points, rng


def _region(points, rng) -> Rect:
    return Rect.ball_box(points[rng.integers(len(points))], rng.uniform(0.05, 0.6))


def _settle(tree, points, rng) -> None:
    for _ in range(2000):
        tree.refine(_region(points, rng))
        root = tree.root
        if isinstance(root, InternalNode) and root.largest_frontier <= LEAF:
            return
    pytest.fail("the tree did not settle")


def _count_calls(tree, name: str) -> list:
    calls = []
    original = getattr(tree, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    setattr(tree, name, counting)
    return calls


def _contour_ids(tree) -> list[list[int]]:
    return [tree._ids_under(element).tolist() for element in tree.contour()]


@pytest.mark.parametrize("cls", CRACKING)
def test_a_settled_tree_refines_without_a_walk(cls):
    tree, points, rng = _tree(cls)
    _settle(tree, points, rng)
    check_invariants(tree)
    splits = tree.splits_performed
    contour = _contour_ids(tree)
    stops = _count_calls(tree, "_stop")
    visits = _count_calls(tree, "_refine_entry")
    for _ in range(50):
        tree.refine(_region(points, rng))
    assert stops == []
    assert len(visits) == 50  # the root, once per refine
    assert tree.splits_performed == splits
    assert _contour_ids(tree) == contour


@pytest.mark.parametrize("cls", CRACKING)
def test_a_grown_frontier_unsettles_its_path(cls):
    tree, points, rng = _tree(cls, seed=1)
    _settle(tree, points, rng)
    # Grow the frontier holding point 0 past one page.
    for _ in range(LEAF):
        tree.insert(tree.store.append(points[0] + rng.normal(scale=1e-3, size=3)))
    assert tree.root.largest_frontier > LEAF
    check_invariants(tree)
    stops = _count_calls(tree, "_stop")
    tree.refine(Rect.ball_box(points[0], 0.3))
    assert stops, "the grown frontier was skipped"
    check_invariants(tree)


@pytest.mark.parametrize("cls", CRACKING)
def test_offline_refine_expands_a_query_cracked_tree(cls):
    tree, points, rng = _tree(cls, seed=2)
    _settle(tree, points, rng)
    assert tree.stats().frontier_elements > 0
    tree.refine(None)
    assert tree.stats().frontier_elements == 0
    assert tree.root.largest_frontier == 0
    check_invariants(tree)


def test_bulk_inserts_stay_fully_expanded():
    tree, points, rng = _tree(BulkLoadedRTree, seed=3)
    assert tree.stats().frontier_elements == 0
    # Enough inserts at one spot to overflow a leaf several times.
    for _ in range(3 * LEAF):
        tree.insert(tree.store.append(points[5] + rng.normal(scale=1e-3, size=3)))
        assert tree.stats().frontier_elements == 0
    check_invariants(tree)


@pytest.mark.parametrize("cls", (*CRACKING, BulkLoadedRTree))
def test_id_cache_follows_splits_inserts_and_deletes(cls):
    tree, points, rng = _tree(cls, seed=4, n=400)
    live = set(range(400))
    for step in range(60):
        region = _region(points, rng)
        tree.refine(region)
        tree.search(region)
        tree.probe(points[rng.integers(400)], 8)
        if step % 3 == 0:
            ident = tree.store.append(rng.normal(size=3))
            tree.insert(ident)
            live.add(ident)
        if step % 5 == 0:
            victim = int(rng.choice(sorted(live)))
            assert tree.delete(victim)
            live.discard(victim)
        assert sorted(tree._ids_under(tree.root).tolist()) == sorted(live)
        check_invariants(tree, expected_ids=live)


def test_cached_ids_are_read_only():
    tree, points, rng = _tree(CrackingRTree, seed=5)
    _settle(tree, points, rng)
    ids = tree._ids_under(tree.root)
    assert tree._ids_under(tree.root) is ids  # served from the cache
    with pytest.raises(ValueError):
        ids[0] = -1
