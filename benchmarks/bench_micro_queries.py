"""Micro-benchmarks: steady-state per-query latency of each method.

Unlike the figure benches (which run a whole experiment once), these use
pytest-benchmark's statistics over many rounds of a single warm query,
giving stable per-operation numbers for regression tracking. Two exact
baselines run next to the index: the paper's per-entity loop (no index)
and the vectorised numpy scan, the one an index has to beat in practice.
"""

import itertools

import pytest

from repro.bench.datasets import movie_dataset
from repro.bench.methods import NoIndexMethod, RTreeMethod
from repro.bench.workloads import make_workload
from repro.index.linear import ExhaustiveScan
from repro.query.spec import QuerySpec


@pytest.fixture(scope="module")
def dataset(scale):
    return movie_dataset(scale)


@pytest.fixture(scope="module")
def workload(dataset):
    return make_workload(dataset.graph, 64, seed=9)


def _warmed_rtree(dataset, workload, variant):
    method = RTreeMethod(dataset, variant)
    for query in workload[:32]:
        method.query(query, 5)
    return method


def test_query_no_index(benchmark, dataset, workload):
    method = NoIndexMethod(dataset)
    cycle = itertools.cycle(workload)
    benchmark(lambda: method.query(next(cycle), 5))


def test_query_exact_scan_vectorized(benchmark, dataset, workload):
    scan = ExhaustiveScan(dataset.model.entity_vectors(), vectorized=True)
    resolver = NoIndexMethod(dataset)
    queries = [
        (resolver._query_point(dataset, query), resolver._exclusion(dataset, query))
        for query in workload
    ]
    cycle = itertools.cycle(queries)

    def run():
        point, exclude = next(cycle)
        return scan.topk(point, 5, exclude)

    benchmark(run)


def test_query_cracking_warm(benchmark, dataset, workload):
    method = _warmed_rtree(dataset, workload, "cracking")
    cycle = itertools.cycle(workload[:32])
    benchmark(lambda: method.query(next(cycle), 5))


def test_query_bulk(benchmark, dataset, workload):
    method = _warmed_rtree(dataset, workload, "bulk")
    cycle = itertools.cycle(workload[:32])
    benchmark(lambda: method.query(next(cycle), 5))


def test_aggregate_avg_warm(benchmark, dataset, workload):
    method = _warmed_rtree(dataset, workload, "cracking")
    likes = dataset.graph.relations.id_of("likes")
    users = [q.entity for q in make_workload(
        dataset.graph, 16, seed=10, relations=[likes], directions=("tail",)
    )]
    cycle = itertools.cycle(users)
    benchmark(
        lambda: method.engine.execute(
            QuerySpec(
                entity=next(cycle), relation=likes, mode="aggregate", agg="avg", attribute="year",
                p_tau=0.25, access_fraction=0.4,
            )
        ).aggregate
    )
