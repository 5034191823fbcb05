"""Self-test of the answer checker: real answers pass, corrupted ones fail.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from checker import Checker, ExactScan, recall  # noqa: E402
from loadgen import Record  # noqa: E402
from workloads import Op, anchor_pools  # noqa: E402

from repro.bench.datasets import movie_dataset  # noqa: E402
from repro.query.engine import QueryEngine  # noqa: E402
from repro.query.spec import QuerySpec  # noqa: E402


@pytest.fixture(scope="module")
def served():
    """A small dataset, its engine and one real top-k answer as served."""
    dataset = movie_dataset(0.2)
    engine = QueryEngine.from_graph(dataset.graph, model=dataset.model)
    (relation, direction), anchors = next(iter(anchor_pools(dataset.graph).items()))
    op = Op("topk", anchors[0], relation, direction, 10)
    result = engine.execute(
        QuerySpec(entity=op.entity, relation=relation, direction=direction, k=10)
    ).topk
    body = {
        "result": {"entities": list(result.entities), "distances": list(result.distances)},
        "error": None,
    }
    return dataset, op, body


def _record(body, sent=1.0, done=2.0) -> Record:
    return Record(0, due=sent, sent=sent, done=done, status=200, body=body)


def _corrupt(body, entities=None, distances=None) -> dict:
    result = dict(body["result"])
    if entities is not None:
        result["entities"] = entities
    if distances is not None:
        result["distances"] = distances
    return {"result": result, "error": None}


def test_real_answer_passes(served):
    dataset, op, body = served
    checker = Checker(dataset)
    assert checker.check_topk(op, _record(body))
    assert not checker.failures


def test_wrong_distance_is_caught(served):
    dataset, op, body = served
    distances = list(body["result"]["distances"])
    distances[3] *= 1.0 + 1e-6
    checker = Checker(dataset)
    assert not checker.check_topk(op, _record(_corrupt(body, distances=distances)))
    assert "distance" in checker.failures[0]


def test_wrong_entity_is_caught(served):
    dataset, op, body = served
    entities = list(body["result"]["entities"])
    outsider = next(e for e in range(len(dataset.model.entity_vectors())) if e not in entities
                    and e not in Checker(dataset).exclude(op.entity, op.relation, op.direction))
    entities[-1] = outsider
    checker = Checker(dataset)
    assert not checker.check_topk(op, _record(_corrupt(body, entities=entities)))


def test_excluded_entity_is_caught(served):
    dataset, op, body = served
    entities = list(body["result"]["entities"])
    entities[0] = op.entity  # the anchor itself is always excluded
    checker = Checker(dataset)
    assert not checker.check_topk(op, _record(_corrupt(body, entities=entities)))
    assert "excluded" in checker.failures[0]


def test_order_and_size_are_checked(served):
    dataset, op, body = served
    checker = Checker(dataset)
    reversed_body = _corrupt(
        body,
        entities=body["result"]["entities"][::-1],
        distances=body["result"]["distances"][::-1],
    )
    assert not checker.check_topk(op, _record(reversed_body))
    small = dataclasses.replace(op, k=3)
    assert not checker.check_topk(small, _record(body))


def test_stale_answer_after_a_completed_write_is_caught(served):
    """An answer computed before a write must not be served after it."""
    dataset, op, body = served
    moved = body["result"]["entities"][0]
    checker = Checker(dataset)
    vector = dataset.model.entity_vectors()[moved] + 0.05
    write = Op("write", moved, vector=tuple(vector.tolist()))
    assert checker.add_write(write, _record({}, sent=1.0, done=1.5))
    # Overlapping the write, the old vector is still admissible ...
    assert checker.check_topk(op, _record(body, sent=1.2, done=1.8))
    # ... once the write has completed before the read, it is not.
    assert not checker.check_topk(op, _record(body, sent=2.0, done=2.5))


def test_aggregate_checks():
    checker = Checker(movie_dataset(0.2))
    op = Op("aggregate", 0, 0, "tail", agg="count")
    good = {"result": {"kind": "count", "value": 3.0, "accessed": 2, "ball_size": 5}}
    assert checker.check_aggregate(op, _record(good))
    for bad in ({"value": math.nan}, {"accessed": 6}, {"kind": "avg"}):
        body = {"result": dict(good["result"], **bad)}
        assert not checker.check_aggregate(op, _record(body))


def test_exact_scan_recall(served):
    dataset, op, body = served
    exact = ExactScan(Checker(dataset)).topk(op)
    assert recall(body["result"]["entities"], exact) >= 0.9
    assert recall(exact, exact) == 1.0
    assert np.isclose(recall(exact[:5] + [-1] * 5, exact), 0.5)
