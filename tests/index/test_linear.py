"""Tests for the exhaustive-scan baseline."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.index.linear import ExhaustiveScan


@pytest.fixture
def vectors():
    rng = np.random.default_rng(5)
    return rng.normal(size=(100, 10))


def test_construction_validation():
    with pytest.raises(IndexError_):
        ExhaustiveScan(np.zeros(5))
    with pytest.raises(IndexError_):
        ExhaustiveScan(np.empty((0, 4)))


def test_topk_matches_numpy_argsort(vectors):
    scan = ExhaustiveScan(vectors)
    q = np.zeros(10)
    result = scan.topk(q, 5)
    dists = np.linalg.norm(vectors - q, axis=1)
    expected = np.argsort(dists)[:5].tolist()
    assert [e for e, _ in result] == expected
    assert all(
        d == pytest.approx(float(dists[e])) for e, d in result
    )


def test_scan_and_vectorized_agree(vectors):
    q = np.random.default_rng(6).normal(size=10)
    slow = ExhaustiveScan(vectors, vectorized=False).topk(q, 7)
    fast = ExhaustiveScan(vectors, vectorized=True).topk(q, 7)
    assert [e for e, _ in slow] == [e for e, _ in fast]


def test_exclusion(vectors):
    scan = ExhaustiveScan(vectors)
    q = np.zeros(10)
    full = scan.topk(q, 3)
    banned = frozenset(e for e, _ in full)
    filtered = scan.topk(q, 3, exclude=banned)
    assert not banned & {e for e, _ in filtered}


def test_k_larger_than_population(vectors):
    scan = ExhaustiveScan(vectors)
    result = scan.topk(np.zeros(10), 200)
    assert len(result) == 100


def test_vectorized_k_larger_with_exclusion(vectors):
    scan = ExhaustiveScan(vectors, vectorized=True)
    exclude = frozenset(range(50))
    result = scan.topk(np.zeros(10), 200, exclude=exclude)
    assert len(result) == 50
    assert not exclude & {e for e, _ in result}


def test_results_sorted_by_distance(vectors):
    result = ExhaustiveScan(vectors).topk(np.ones(10), 10)
    dists = [d for _, d in result]
    assert dists == sorted(dists)


def test_counters(vectors):
    scan = ExhaustiveScan(vectors)
    scan.topk(np.zeros(10), 3)
    assert scan.counters.points_examined == 100


def test_bad_k(vectors):
    with pytest.raises(IndexError_):
        ExhaustiveScan(vectors).topk(np.zeros(10), 0)


@pytest.mark.parametrize("vectorized", [False, True])
def test_ties_at_the_kth_distance_break_by_id(vectorized):
    """On an integer grid many points tie at the k-th distance; every
    exact scan must keep the smallest ids, ranking by (distance, id)."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        vectors = rng.integers(-2, 3, size=(40, 2)).astype(float)
        q = rng.integers(-2, 3, size=2).astype(float)
        k = int(rng.integers(1, 10))
        exclude = frozenset(rng.choice(40, size=3, replace=False).tolist())
        dists = np.linalg.norm(vectors - q, axis=1)
        want = sorted((float(d), i) for i, d in enumerate(dists) if i not in exclude)[:k]
        got = ExhaustiveScan(vectors, vectorized=vectorized).topk(q, k, exclude)
        assert [e for e, _ in got] == [i for _, i in want]
        assert [d for _, d in got] == pytest.approx([d for d, _ in want])
