"""Property-based test: the index stays structurally sound under random
online-update sequences interleaved with cracking queries.

Every :class:`~repro.dynamic.updater.OnlineUpdater` operation moves
entity points (local SGD) and reindexes the movers; queries crack the
tree between updates. After any such interleaving,
:func:`~repro.index.validation.check_invariants` must hold: the contour
still partitions the store, MBRs still nest, sort orders stay consistent.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.updater import OnlineUpdater
from repro.embedding.trainer import TrainConfig, train_model
from repro.embedding.transe import TransE
from repro.index.validation import check_invariants
from repro.kg.generators import movielens_like
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec

_NUM_USERS = 10
_NUM_MOVIES = 20


def _world():
    return movielens_like(
        num_users=_NUM_USERS,
        num_movies=_NUM_MOVIES,
        num_genres=3,
        num_tags=4,
        num_ratings=80,
        seed=2,
    )


@functools.lru_cache(maxsize=1)
def _trained_prototype():
    graph, _ = _world()
    return train_model(graph, TrainConfig(dim=8, epochs=4, seed=0)).model


def _fresh_engine(index: str) -> QueryEngine:
    graph, _ = _world()
    proto = _trained_prototype()
    model = TransE(graph.num_entities, graph.num_relations, dim=proto.dim, seed=0)
    model._entities[:] = proto.entity_vectors()
    model._relations[:] = proto.relation_vectors()
    return QueryEngine.from_graph(
        graph, EngineConfig(index=index, epsilon=0.5, leaf_capacity=4, fanout=3),
        model=model,
    )


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(0, _NUM_USERS - 1),
            st.integers(0, _NUM_MOVIES - 1),
        ),
        st.tuples(
            st.just("remove"),
            st.integers(0, _NUM_USERS - 1),
            st.integers(0, _NUM_MOVIES - 1),
        ),
        st.tuples(st.just("new_entity"), st.integers(0, _NUM_USERS - 1)),
        st.tuples(st.just("query"), st.integers(0, _NUM_USERS - 1)),
    ),
    min_size=1,
    max_size=10,
)


@given(operations, st.sampled_from(["cracking", "bulk"]))
@settings(max_examples=15, deadline=None)
def test_random_update_sequences_keep_the_index_sound(ops, variant):
    engine = _fresh_engine(variant)
    graph = engine.graph
    updater = OnlineUpdater(engine, seed=0)
    likes = graph.relations.id_of("likes")
    fresh = 0

    for op in ops:
        if op[0] == "add":
            head = graph.entities.id_of(f"user:{op[1]}")
            tail = graph.entities.id_of(f"movie:{op[2]}")
            if not graph.has_triple(head, likes, tail):
                updater.add_edge(head, likes, tail)
        elif op[0] == "remove":
            head = graph.entities.id_of(f"user:{op[1]}")
            tail = graph.entities.id_of(f"movie:{op[2]}")
            if graph.has_triple(head, likes, tail):
                updater.remove_edge(head, likes, tail)
        elif op[0] == "new_entity":
            near = graph.entities.id_of(f"user:{op[1]}")
            updater.add_entity(f"user:fresh-{fresh}", near=near)
            fresh += 1
        else:  # query — cracks the tree between updates
            user = graph.entities.id_of(f"user:{op[1]}")
            engine.execute(QuerySpec(entity=user, relation=likes, k=3))
        check_invariants(engine.index)

    # Everything still answers, and every store row is still indexed.
    assert engine.index.store.size == graph.num_entities
    check_invariants(engine.index)
