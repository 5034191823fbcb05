"""Tests for the dynamic-update extension (OnlineUpdater)."""

import numpy as np
import pytest

from repro.dynamic.updater import OnlineUpdater
from repro.embedding.trainer import TrainConfig, train_model
from repro.errors import QueryError
from repro.kg.generators import movielens_like
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec


@pytest.fixture
def engine():
    graph, _ = movielens_like(
        num_users=60, num_movies=120, num_genres=6, num_tags=12, num_ratings=900,
        seed=3,
    )
    model = train_model(graph, TrainConfig(dim=16, epochs=10, seed=0)).model
    return QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=1.0), model=model
    )


@pytest.fixture
def updater(engine):
    return OnlineUpdater(engine, local_epochs=5, seed=0)


def test_add_edge_excludes_from_predictions(engine, updater):
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:0")
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=5)).topk
    target = result.entities[0]
    report = updater.add_edge(user, likes, target)
    assert user in report.entities_touched
    after = engine.execute(QuerySpec(entity=user, relation=likes, k=5)).topk
    assert target not in after.entities  # now a known edge, E' excludes it


def test_add_edge_runs_local_steps_and_reindexes(engine, updater):
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:1")
    movie = graph.entities.id_of("movie:5")
    report = updater.add_edge(user, likes, movie)
    assert report.local_steps == updater.local_epochs
    assert report.max_displacement >= 0.0
    # Index search still matches brute force after the re-indexing.
    spec = QuerySpec(entity=user, relation=likes, k=5)
    result = engine.execute(spec).topk
    truth = engine.exhaustive(spec).entities
    assert len(set(result.entities) & set(truth)) >= 3


def test_update_moves_embedding_toward_new_edge(engine, updater):
    """Local SGD should pull h + r closer to the new tail."""
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:2")
    movie = graph.entities.id_of("movie:7")
    before = engine.model.triple_distance(user, likes, movie)
    updater.add_edge(user, likes, movie)
    after = engine.model.triple_distance(user, likes, movie)
    assert after <= before + 1e-9


def test_remove_edge_restores_predictability(engine, updater):
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:3")
    known = sorted(graph.tails(user, likes))
    if not known:
        pytest.skip("user:3 has no known likes in this seed")
    target = known[0]
    updater.remove_edge(user, likes, target)
    assert not graph.has_triple(user, likes, target)
    # The removed edge's tail may now appear in predictions again (it is
    # at least no longer excluded).
    result = engine.execute(QuerySpec(entity=user, relation=likes, k=graph.num_entities // 2)).topk
    assert target in result.entities


def test_remove_missing_edge_raises(engine, updater):
    likes = engine.graph.relations.id_of("likes")
    with pytest.raises(QueryError):
        updater.remove_edge(0, likes, 1) if not engine.graph.has_triple(
            0, likes, 1
        ) else pytest.skip("edge exists")


def test_add_entity_then_edges_integrates_it(engine, updater):
    graph = engine.graph
    likes = graph.relations.id_of("likes")
    anchor = graph.entities.id_of("user:4")
    newbie = updater.add_entity("user:new", near=anchor)
    assert graph.entities.name_of(newbie) == "user:new"
    assert engine.model.num_entities == graph.num_entities
    # Give the new user a few likes and query them.
    for movie_name in ("movie:1", "movie:2", "movie:3"):
        updater.add_edge(newbie, likes, graph.entities.id_of(movie_name))
    result = engine.execute(QuerySpec(entity=newbie, relation=likes, k=5)).topk
    assert len(result) == 5
    assert newbie not in result.entities


def test_add_duplicate_entity_raises(engine, updater):
    with pytest.raises(QueryError):
        updater.add_entity("user:0")


def test_set_entity_vector_frozen_model_path():
    """The frozen-model path: explicit vector update + re-indexing."""
    from repro.embedding.pretrained import PretrainedEmbedding
    from repro.kg.generators import movielens_like as gen

    graph, world = gen(
        num_users=40, num_movies=80, num_genres=5, num_tags=8, num_ratings=500,
        seed=9,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=24, seed=0)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    updater = OnlineUpdater(engine)
    target = graph.entities.id_of("movie:0")
    anchor = graph.entities.id_of("movie:1")
    new_vector = model.entity_vectors()[anchor] + 1e-4
    report = updater.set_entity_vector(target, new_vector)
    assert report.entities_reindexed == (target,)
    assert np.allclose(model.entity_vectors()[target], new_vector)
    # movie:0 now sits essentially on movie:1, so any query returning
    # movie:1 region should behave consistently (index not corrupted).
    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:0")
    spec = QuerySpec(entity=user, relation=likes, k=5)
    result = engine.execute(spec).topk
    truth = engine.exhaustive(spec).entities
    assert len(set(result.entities) & set(truth)) >= 4


def test_frozen_model_add_edge_skips_training():
    from repro.embedding.pretrained import PretrainedEmbedding
    from repro.kg.generators import movielens_like as gen

    graph, world = gen(
        num_users=40, num_movies=80, num_genres=5, num_tags=8, num_ratings=500,
        seed=9,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=24, seed=0)
    engine = QueryEngine.from_graph(graph, EngineConfig(index="cracking"), model=model)
    updater = OnlineUpdater(engine)
    user = graph.entities.id_of("user:0")
    likes = graph.relations.id_of("likes")
    movie = graph.entities.id_of("movie:9")
    report = updater.add_edge(user, likes, movie)
    assert report.local_steps == 0
    assert graph.has_triple(user, likes, movie)
