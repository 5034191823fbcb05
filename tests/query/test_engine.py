"""Tests for the QueryEngine facade."""

import numpy as np
import pytest

from repro.embedding.transh import TransH
from repro.errors import QueryError
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec


def test_from_graph_index_variants(dataset, model):
    graph, _ = dataset
    from repro.index.bulkload import BulkLoadedRTree
    from repro.index.cracking import CrackingRTree
    from repro.index.topk_splits import TopKSplitsRTree

    engine = QueryEngine.from_graph(graph, EngineConfig(index="bulk"), model=model)
    assert isinstance(engine.index, BulkLoadedRTree)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    assert isinstance(engine.index, CrackingRTree)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="topk3"), model=model)
    assert isinstance(engine.index, TopKSplitsRTree)
    assert engine.index.num_choices == 3
    with pytest.raises(QueryError):
        QueryEngine.from_graph(graph, EngineConfig(index="nope"), model=model)


def test_rejects_non_spatial_model(dataset):
    graph, _ = dataset
    transh = TransH(graph.num_entities, graph.num_relations, dim=8, seed=0)
    with pytest.raises(QueryError):
        QueryEngine.from_graph(graph, EngineConfig(), model=transh)


def test_tail_topk_excludes_known_edges(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    known = graph.tails(user, likes)
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=10)).topk
    assert not set(result.entities) & set(known)
    assert user not in result.entities


def test_head_topk_excludes_known_edges(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    movie = world.members("movie")[0]
    known = graph.heads(movie, likes)
    result = engine.execute(QuerySpec(entity=movie, relation=likes, direction="head", k=10)).topk
    assert not set(result.entities) & set(known)
    assert movie not in result.entities


def test_index_matches_exhaustive_ground_truth(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    agreements = []
    for user in world.members("user")[:10]:
        spec = QuerySpec(entity=user, relation=likes, k=5)
        truth = set(engine.exhaustive(spec).entities)
        got = set(engine.execute(spec).topk.entities)
        agreements.append(len(truth & got) / 5)
    assert np.mean(agreements) >= 0.9


def test_heads_direction_matches_exhaustive(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    agreements = []
    for movie in world.members("movie")[:10]:
        spec = QuerySpec(entity=movie, relation=likes, direction="head", k=5)
        truth = set(engine.exhaustive(spec).entities)
        got = set(engine.execute(spec).topk.entities)
        agreements.append(len(truth & got) / 5)
    assert np.mean(agreements) >= 0.9


def test_probabilities_anchored_and_decreasing(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    result = engine.execute(QuerySpec(entity=world.members("user")[0], relation=likes, k=5)).topk
    probs = engine.probabilities(result)
    assert probs[0] == 1.0
    assert list(probs) == sorted(probs, reverse=True)
    assert engine.probabilities(
        type(result)((), (), 0, float("inf"), None)
    ) == ()


def test_repeated_queries_reuse_index(engine, dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    spec = QuerySpec(entity=user, relation=likes, k=5)
    engine.execute(spec)
    splits_after_first = engine.index.splits_performed
    engine.execute(spec)
    assert engine.index.splits_performed == splits_after_first
