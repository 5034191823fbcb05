"""Tests for the unified QuerySpec surface."""

import pytest

from repro.errors import QueryError
from repro.query.spec import DEFAULT_K, QuerySpec


class TestValidation:
    def test_defaults(self):
        spec = QuerySpec(entity=1, relation=2)
        assert spec.mode == "topk"
        assert spec.direction == "tail"
        assert spec.k == DEFAULT_K

    def test_bad_direction(self):
        with pytest.raises(QueryError, match="direction"):
            QuerySpec(entity=0, relation=0, direction="sideways")

    def test_bad_mode(self):
        with pytest.raises(QueryError, match="mode"):
            QuerySpec(entity=0, relation=0, mode="threshold")

    def test_k_must_be_positive(self):
        with pytest.raises(QueryError, match="k"):
            QuerySpec(entity=0, relation=0, k=0)

    def test_epsilon_must_be_nonnegative(self):
        with pytest.raises(QueryError, match="epsilon"):
            QuerySpec(entity=0, relation=0, epsilon=-0.1)

    def test_aggregate_needs_a_kind(self):
        with pytest.raises(QueryError, match="agg"):
            QuerySpec(entity=0, relation=0, mode="aggregate")

    def test_aggregate_rejects_unknown_kind(self):
        with pytest.raises(QueryError, match="median"):
            QuerySpec(entity=0, relation=0, mode="aggregate", agg="median")

    def test_specs_are_hashable_dedup_keys(self):
        a = QuerySpec(entity=3, relation=1, k=5)
        b = QuerySpec(entity=3, relation=1, k=5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestExecute:
    def test_execute_returns_mode_matched_result(self, engine, dataset):
        graph, world = dataset
        user = world.members("user")[0]
        likes = graph.relations.id_of("likes")
        result = engine.execute(QuerySpec(entity=user, relation=likes, k=5))
        assert result.spec.mode == "topk"
        assert result.aggregate is None
        assert result.value is result.topk
        assert len(result.topk.entities) == 5

        agg = engine.execute(
            QuerySpec(
                entity=user, relation=likes, mode="aggregate", agg="count",
                p_tau=0.2,
            )
        )
        assert agg.topk is None
        assert agg.value is agg.aggregate
        assert agg.aggregate.kind == "count"

    def test_unknown_entity_fails_loudly(self, engine):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="out of range"):
            engine.execute(QuerySpec(entity=10**6, relation=0, k=3))
