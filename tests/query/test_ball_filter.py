"""The aggregate ball and ``predict_ball`` filter the searched ids with one
order-keeping mask. The per-id Python loop they replaced is kept here as
the reference: ids, their order and their distances must be identical.
"""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.index.geometry import Rect
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.probability import InverseDistanceProbability
from repro.query.spec import QuerySpec
from repro.query.topk import find_topk


def _loop_ball(processor, query_point_s1, p_tau, exclude):
    """``AggregateProcessor._ball`` in its per-id loop form (no refine)."""
    q2 = processor.transform(query_point_s1)
    seeds = [int(e) for e in processor.index.probe(q2, 4) if int(e) not in exclude]
    if not seeds:
        seeds = [int(e) for e in processor.index.probe(q2, 64) if int(e) not in exclude]
    if not seeds:
        raise QueryError("no candidate entities found near the query point")
    seed_dists = np.linalg.norm(processor.s1_vectors[seeds] - query_point_s1, axis=1)
    model = InverseDistanceProbability(float(seed_dists.min()))
    radius = model.ball_radius(p_tau) * (1.0 + processor.epsilon)
    region = Rect.ball_box(q2, radius)
    ids = np.array(
        [int(e) for e in processor.index.search(region) if int(e) not in exclude],
        dtype=np.int64,
    )
    if len(ids) == 0:
        return ids, np.empty(0), region
    dists = np.linalg.norm(processor.s1_vectors[ids] - query_point_s1, axis=1)
    model = InverseDistanceProbability(float(dists.min()))
    in_ball = model.probabilities(dists) >= p_tau
    return ids[in_ball], dists[in_ball], region


def _loop_predict_ball(engine, head, relation, p_tau):
    """``QueryEngine.predict_ball`` in its per-id loop form."""
    q1, exclude, _, _ = engine.resolve(QuerySpec(entity=head, relation=relation))
    seed = find_topk(
        engine.index, engine.s1_vectors, engine.transform, q1, 1,
        exclude=exclude, epsilon=engine.epsilon, refine_index=False,
    )
    if not seed.entities:
        return []
    prob_model = InverseDistanceProbability(seed.distances[0])
    radius = prob_model.ball_radius(p_tau) * (1.0 + engine.epsilon)
    region = Rect.ball_box(engine.transform(q1), radius)
    engine.index.refine(region)
    ids = np.array(
        [int(e) for e in engine.index.search(region) if int(e) not in exclude],
        dtype=np.int64,
    )
    if len(ids) == 0:
        return []
    dists = np.linalg.norm(engine.s1_vectors[ids] - q1, axis=1)
    prob_model = InverseDistanceProbability(float(dists.min()))
    probs = prob_model.probabilities(dists)
    keep = probs >= p_tau
    pairs = sorted(
        zip(ids[keep].tolist(), probs[keep].tolist()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [(int(e), float(p)) for e, p in pairs]


@pytest.fixture
def anchors(dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    return likes, list(world.members("user")[:40])


@pytest.mark.parametrize("p_tau", [0.05, 0.2, 0.6])
def test_aggregate_ball_matches_the_loop_form(engine, anchors, p_tau):
    likes, users = anchors
    processor = engine._aggregates
    for user in users:
        for direction in ("tail", "head"):
            q1, exclude, _, _ = engine.resolve(
                QuerySpec(entity=user, relation=likes, direction=direction)
            )
            want_ids, want_dists, want_region = _loop_ball(processor, q1, p_tau, exclude)
            ids, dists, region = processor._ball(q1, p_tau, exclude, refine_index=False)
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, want_ids, strict=True)
            np.testing.assert_array_equal(dists, want_dists, strict=True)
            assert region == want_region
            # Crack for this region so later anchors meet a changed tree.
            engine.index.refine(region)


@pytest.mark.parametrize("p_tau", [0.05, 0.2, 0.6])
def test_predict_ball_matches_the_loop_form(dataset, model, anchors, p_tau):
    graph, _ = dataset
    likes, users = anchors
    engines = [
        QueryEngine.from_graph(graph, EngineConfig(epsilon=0.5), model=model)
        for _ in range(2)
    ]
    for user in users:
        want = _loop_predict_ball(engines[0], user, likes, p_tau)
        assert engines[1].predict_ball(user, likes, p_tau=p_tau) == want
