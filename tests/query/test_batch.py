"""Tests for batch query execution."""

import pytest

from repro.errors import QueryError, ServiceError
from repro.query.batch import run_batch
from repro.query.spec import QuerySpec


def _specs(users, relation, direction="tail", k=5):
    return [
        QuerySpec(entity=u, relation=relation, direction=direction, k=k) for u in users
    ]


@pytest.fixture
def queries(dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users = world.members("user")[:6]
    movies = world.members("movie")[:2]
    return (
        _specs(users, likes)
        + _specs(movies, likes, "head")
        + _specs(users[:1], likes)  # duplicate
    )


def test_batch_results_in_input_order(engine, queries):
    report = run_batch(engine, queries)
    assert len(report.results) == len(queries)
    for spec, result in zip(queries, report.results):
        assert result.entities == engine.execute(spec).topk.entities


def test_batch_dedupes(engine, queries):
    report = run_batch(engine, queries)
    assert report.total_queries == len(queries)
    assert report.unique_executed == len(queries) - 1
    assert report.dedup_ratio < 1.0
    # Duplicate queries share the identical result object.
    assert report.results[0] is report.results[-1]


def test_batch_empty(engine):
    report = run_batch(engine, [])
    assert report.results == []
    assert report.dedup_ratio == 1.0


def test_batch_validates_direction(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    with pytest.raises(QueryError):
        run_batch(engine, [QuerySpec(entity=0, relation=likes, direction="sideways")])


def test_batch_counts_points(engine, queries):
    report = run_batch(engine, queries)
    assert report.points_examined > 0


def test_batch_accepts_specs_with_their_own_k(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users = world.members("user")[:3]
    items = [
        QuerySpec(entity=users[0], relation=likes, k=7),
        QuerySpec(entity=users[1], relation=likes, k=4),
        QuerySpec(entity=users[2], relation=likes, direction="head", k=2),
    ]
    report = run_batch(engine, items)
    assert [len(result.entities) for result in report.results] == [7, 4, 2]
    # Every distinct spec runs once; nothing is answered from a cache.
    assert report.unique_executed == len(items)


def test_batch_rejects_aggregate_specs(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    agg = QuerySpec(
        entity=world.members("user")[0], relation=likes, mode="aggregate",
        agg="count",
    )
    with pytest.raises(ServiceError, match="top-k specs only"):
        run_batch(engine, [agg])


def test_batch_rejects_foreign_items(engine):
    with pytest.raises(QueryError, match="must be QuerySpec"):
        run_batch(engine, [("user:0", "likes")])
