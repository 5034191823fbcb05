"""The serving acceptance tests: concurrent replay correctness.

A 4-thread replay of 500+ queries against a cracking-index service must
return exactly what a sequential no-service engine returns, with the
cache visibly working and the latency histogram fully populated; and a
dynamic update mid-replay must evict the affected cache entries so no
stale top-k is ever served afterwards.
"""

from repro.bench.workloads import make_workload
from repro.dynamic.updater import OnlineUpdater
from repro.query.spec import QuerySpec
from repro.service.replay import replay
from repro.service.server import QueryService


def _sequential_baseline(engine, workload, k):
    expected = []
    for query in workload:
        if query.direction == "tail":
            result = engine.execute(
                QuerySpec(entity=query.entity, relation=query.relation, k=k)
            ).topk
        else:
            result = engine.execute(
                QuerySpec(entity=query.entity, relation=query.relation, direction="head", k=k)
            ).topk
        expected.append(result.entities)
    return expected


def test_four_thread_replay_matches_sequential_baseline(make_engine, dataset):
    graph, _ = dataset
    workload = make_workload(graph, 500, seed=23, skew=0.9)
    expected = _sequential_baseline(make_engine(), workload, k=5)

    with QueryService(make_engine(), workers=4, max_queue=256) as service:
        report = replay(service, workload, k=5, threads=4)
        snap = service.metrics_snapshot()

    assert report.completed == report.total == 500
    assert report.errors == 0 and report.deadline_exceeded == 0
    for position, result in enumerate(report.results):
        assert result.entities == expected[position], f"query #{position} diverged"

    # The skewed workload repeats queries, so the cache must have fired...
    assert report.cache_hits > 0
    assert snap["counters"]["cache_hits"] == report.cache_hits
    # ...and the latency histogram must account for every request.
    latency = snap["latency"]
    assert latency["count"] == 500
    assert latency["p99"] >= latency["p95"] >= latency["p50"] > 0.0
    assert sum(latency["buckets"].values()) == 500
    assert report.throughput_qps > 0


def test_replay_with_target_qps_paces_submissions(make_engine, dataset):
    graph, _ = dataset
    workload = make_workload(graph, 40, seed=3, skew=0.5)
    with QueryService(make_engine(), workers=2) as service:
        report = replay(service, workload, k=3, threads=2, target_qps=400.0)
    assert report.completed == 40
    # 40 queries at 400 qps cannot finish faster than ~0.1 s.
    assert report.elapsed_seconds >= 0.095
    assert report.target_qps == 400.0


def test_midreplay_update_evicts_affected_entries(make_engine, dataset):
    """Phase 1 warms the cache, an edge update lands, phase 2 replays the
    same skewed workload: the touched query's entry must have been
    evicted and its new answers must reflect the updated graph."""
    graph, world = dataset
    likes = graph.relations.id_of("likes")
    user = world.members("user")[0]
    workload = make_workload(graph, 120, seed=11, skew=0.9, relations=[likes])

    engine = make_engine()
    with QueryService(engine, workers=4, max_queue=256) as service:
        updater = OnlineUpdater(engine)
        service.attach_updater(updater)

        replay(service, workload, k=5, threads=4)
        spec = QuerySpec(entity=user, relation=likes, k=5)
        service.execute(spec)  # warm, in case the replay missed it
        stale = service.execute(spec)
        assert stale.cached
        top_tail = stale.result.entities[0]

        # The dynamic update: the predicted edge becomes a known fact.
        # Routed through the pool so it serializes with in-flight queries.
        service.pool.execute(lambda eng: updater.add_edge(user, likes, top_tail))
        assert service.metrics_snapshot()["counters"]["invalidations"] > 0

        report = replay(service, workload, k=5, threads=4)
        assert report.completed == 120

        # Every post-update answer for the touched query excludes the new
        # known edge — no stale top-k was served.
        for query, result in zip(workload, report.results):
            if query.entity == user and query.direction == "tail":
                assert top_tail not in result.entities

        # And the fresh answer matches a sequential engine that saw the
        # same update.
        baseline = make_engine()
        OnlineUpdater(baseline).add_edge(user, likes, top_tail)
        expected = baseline.execute(spec).topk
        assert service.execute(spec).result.entities == expected.entities
