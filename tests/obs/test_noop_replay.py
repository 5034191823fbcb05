"""The disabled-tracing contract: instrumentation must be invisible.

With tracing off, a concurrent replay through the fully-instrumented
service must return element-wise exactly what a sequential, never-traced
engine returns — and produce zero spans, zero trace deliveries.
"""

from repro.bench.workloads import make_workload
from repro.obs import trace
from repro.obs.trace import NOOP_SPAN
from repro.service.replay import replay
from repro.service.server import QueryService


def _sequential_baseline(engine, workload, k):
    expected = []
    for query in workload:
        result = engine.execute(query.spec(k)).topk
        expected.append((query.entity, result.entities, result.distances))
    return expected


def test_replay_with_tracing_off_is_identical_and_spanless(make_engine, dataset):
    graph, _ = dataset
    workload = make_workload(graph, 200, seed=17, skew=0.8)
    expected = _sequential_baseline(make_engine(), workload, k=5)

    delivered = []
    trace.add_listener(delivered.append)
    try:
        assert not trace.enabled()
        with QueryService(make_engine(), workers=4, max_queue=256) as service:
            report = replay(service, workload, k=5, threads=4)
    finally:
        trace.remove_listener(delivered.append)

    assert report.completed == 200 and report.errors == 0
    for position, result in enumerate(report.results):
        entity, entities, distances = expected[position]
        assert result.entities == entities, f"query #{position} ({entity}) diverged"
        assert result.distances == distances, f"query #{position} distances diverged"
    # Not one span, not one trace: the disabled path records nothing.
    assert delivered == []
    assert trace.span("query.topk") is NOOP_SPAN


def test_instrumented_index_is_deterministic_across_tracing_modes(make_engine, dataset):
    """The same query sequence cracks the index identically whether or
    not spans are being recorded (tracing observes, never steers)."""
    graph, _ = dataset
    workload = make_workload(graph, 40, seed=29, skew=0.5)

    def run(engine, enable_tracing):
        results = []
        if enable_tracing:
            trace.enable()
        try:
            for query in workload:
                result = engine.execute(query.spec(5)).topk
                results.append(result.entities)
        finally:
            trace.disable()
        return results, engine.index.stats()

    plain_results, plain_stats = run(make_engine(), False)
    traced_results, traced_stats = run(make_engine(), True)
    assert traced_results == plain_results
    assert traced_stats == plain_stats
