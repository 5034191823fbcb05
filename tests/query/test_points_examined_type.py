"""``TopKResult.points_examined`` is a Python ``int`` in every mode.

The count feeds JSON (``/v1/query``, ``/metrics``) and the serving
counters; a numpy integer leaking out of the examination loop (say from
``searchsorted``) leaves every answer digest unchanged but breaks
``json.dumps``. Checked for one tree, 2 shards and the ladder's linear
rung.
"""

import json

import pytest

from repro.errors import IndexError_
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.degrade import DegradationLadder
from repro.shard import ShardedEngine


@pytest.fixture
def specs(dataset):
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    users = world.members("user")[:12]
    return [
        QuerySpec(entity=user, relation=likes, direction=direction, k=k)
        for user in users
        for direction in ("tail", "head")
        for k in (1, 5, 10)
    ]


def _assert_plain_int(result) -> None:
    assert type(result.points_examined) is int
    json.dumps({"points_examined": result.points_examined})


def test_single_tree(engine, specs):
    for spec in specs:
        _assert_plain_int(engine.execute(spec).topk)


def test_two_shards(dataset, model, specs):
    graph, _ = dataset
    engine = ShardedEngine.from_engine(
        QueryEngine.from_graph(graph, EngineConfig(epsilon=0.5), model=model),
        shards=2, scheme="hash", backend="thread",
    )
    try:
        for spec in specs:
            _assert_plain_int(engine.execute(spec).topk)
    finally:
        engine.close()


def test_linear_rung(engine, specs):
    ladder = DegradationLadder(auto_rebuild=False)
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=2)
    with activate(controller):
        for spec in specs[:2]:  # each fired fault drops one rung
            ladder.run_topk(engine, spec)
    assert ladder.level_of(engine) == 2
    for spec in specs:
        result, _ = ladder.run_topk(engine, spec)
        _assert_plain_int(result)
