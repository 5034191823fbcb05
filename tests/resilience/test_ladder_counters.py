"""The ladder's indexed top-k path: no tree walk, and counters that agree
with EXPLAIN.

Serving a top-k must not pay for an ``index.stats()`` walk (on a sharded
engine that walk is a scatter round to every lane) unless tracing is
recording the ``engine.topk`` span's ``contour_size``. The serving
metrics' ``splits_triggered`` and ``points_examined`` counters still
account every query exactly as :meth:`QueryEngine.explain` would.
"""

import pytest

from repro.bench.workloads import make_workload
from repro.obs import trace
from repro.query.spec import QuerySpec
from repro.resilience.degrade import DegradationLadder
from repro.service.server import QueryService
from repro.shard import ShardedEngine


def _build(make_engine, sharded: bool):
    engine = make_engine()
    if sharded:
        engine = ShardedEngine.from_engine(engine, shards=2, scheme="hash")
    return engine


def _close(engine) -> None:
    if getattr(engine, "is_sharded", False):
        engine.close()


def _specs(graph, n, seed=3):
    """Distinct top-k specs (no cache hits in a service)."""
    specs = []
    for position, query in enumerate(make_workload(graph, 4 * n, seed=seed)):
        spec = QuerySpec(
            entity=query.entity, relation=query.relation,
            direction=query.direction, k=4 + position % 5,
        )
        if spec not in specs:
            specs.append(spec)
    return specs[:n]


def _count_stats_calls(engine) -> list[int]:
    """Instrument every ``stats()`` the engine can reach; returns a
    one-element call counter."""
    calls = [0]
    indexes = [engine.index]
    if getattr(engine, "is_sharded", False):
        indexes += [shard.index for shard in engine._shard_engines]
    for index in indexes:
        inner = index.stats

        def counted(inner=inner):
            calls[0] += 1
            return inner()

        index.stats = counted
    return calls


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
def test_warm_run_topk_never_walks_the_tree_untraced(
    dataset, make_engine, sharded
):
    graph, _ = dataset
    engine = _build(make_engine, sharded)
    try:
        ladder = DegradationLadder()
        specs = _specs(graph, 40)
        for spec in specs[:20]:  # warm up: crack the tree
            ladder.run_topk(engine, spec)
        calls = _count_stats_calls(engine)
        assert not trace.enabled()
        for spec in specs[20:]:
            result, splits = ladder.run_topk(engine, spec)
            assert len(result) > 0
            assert splits >= 0
        assert calls[0] == 0
        # Recording spans is what pays for the walk (contour_size).
        with trace.capture() as records:
            ladder.run_topk(engine, specs[0])
        assert calls[0] >= 1
        assert "contour_size" in records[0].find("engine.topk")["attributes"]
    finally:
        _close(engine)


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
def test_serving_counters_equal_explain(dataset, make_engine, sharded):
    graph, _ = dataset
    served = _build(make_engine, sharded)
    explained = _build(make_engine, sharded)
    service = QueryService(served, workers=1)
    try:
        splits = examined = 0
        for spec in _specs(graph, 60, seed=8):
            got = service.execute(spec)
            assert not got.cached
            report = explained.explain(spec)
            assert got.result.entities == report.result.entities
            splits += report.splits_triggered
            examined += report.points_examined
        counters = service.metrics.snapshot()["counters"]
        assert splits > 0
        assert counters["splits_triggered"] == splits
        assert counters["points_examined"] == examined
    finally:
        service.close()
        _close(served)
        _close(explained)
