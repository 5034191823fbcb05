"""Resilience benchmark: serving under a deterministic fault schedule.

Runs the same workload twice over engines built from the same dataset —
once fault-free and sequential (the oracle), once through a
:class:`~repro.service.server.QueryService` with a seeded chaos schedule
active (worker kills, injected query faults, a forced index failure) and
clients retrying via :class:`~repro.resilience.retry.RetryPolicy` — and
reports throughput alongside what the fault-tolerance machinery did:
restarts, degradations, rebuilds, retries, and whether every answer
still matched the oracle.

That last column is the point: the paper's top-k algorithm is exact in
S1 for every index variant, so a correctly degrading service is
*answer-preserving* under faults, not merely available.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.datasets import BenchDataset, movie_dataset
from repro.bench.workloads import make_workload
from repro.errors import IndexError_, InjectedFaultError, WorkerCrashError
from repro.query.engine import EngineConfig, QueryEngine
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.retry import RetryPolicy
from repro.service.replay import ReplayReport, replay
from repro.service.server import QueryService


@dataclass(frozen=True)
class ResilienceBenchResult:
    """One chaos-replay run compared against its fault-free oracle."""

    total: int
    completed: int
    matched: int  # answers identical to the fault-free baseline
    throughput_qps: float
    p99_ms: float
    worker_kills: int
    query_faults: int
    retried: int
    worker_restarts: int
    degradations: int
    index_rebuilds: int

    @property
    def answer_preserving(self) -> bool:
        return self.completed == self.total and self.matched == self.total

    def as_row(self) -> list:
        return [
            f"{self.completed}/{self.total}",
            f"{self.matched}/{self.total}",
            f"{self.throughput_qps:.0f}",
            f"{self.p99_ms:.2f}",
            self.worker_kills,
            self.query_faults,
            self.retried,
            self.worker_restarts,
            self.degradations,
            self.index_rebuilds,
        ]


def default_schedule(seed: int = 7) -> ChaosController:
    """The standard acceptance schedule: 2 worker kills (one clean, one
    mid-query), 5 injected query faults, 1 forced index failure."""
    controller = ChaosController(seed=seed)
    controller.on("pool.worker", exc=WorkerCrashError, after=20, max_fires=1)
    controller.on("pool.worker.dirty", exc=WorkerCrashError, after=60, max_fires=1)
    controller.on(
        "service.query",
        exc=InjectedFaultError,
        message="injected transient query fault",
        probability=0.04,
        after=10,
        max_fires=5,
    )
    controller.on(
        "engine.topk",
        exc=IndexError_,
        message="injected index invariant failure",
        after=120,
        max_fires=1,
    )
    return controller


def run_resilience_benchmark(
    dataset: BenchDataset | None = None,
    scale: float = 1.0,
    num_queries: int = 500,
    k: int = 5,
    threads: int = 4,
    workers: int = 4,
    index: str = "cracking",
    seed: int = 7,
    schedule: ChaosController | None = None,
) -> tuple[ResilienceBenchResult, ReplayReport]:
    """Replay under faults; compare element-wise with a fault-free run."""
    if dataset is None:
        dataset = movie_dataset(scale)
    workload = make_workload(dataset.graph, num_queries, seed=seed, skew=0.0)

    # Oracle: fault-free, sequential, single fresh engine.
    oracle_engine = QueryEngine.from_graph(
        dataset.graph, EngineConfig(index=index), model=dataset.model
    )
    baseline = [oracle_engine.execute(q.spec(k)).topk for q in workload]

    engine = QueryEngine.from_graph(
        dataset.graph, EngineConfig(index=index), model=dataset.model
    )
    controller = schedule or default_schedule(seed)
    retry = RetryPolicy(seed=seed)
    with activate(controller):
        # An answer served from cache would hide a fault, so keep the
        # cache out of the experiment (capacity 1, immediately evicted by
        # the mixed key stream).
        with QueryService(
            engine, workers=workers, watchdog_interval=0.05, cache_capacity=1
        ) as service:
            report = replay(
                service, workload, k=k, threads=threads, retry=retry
            )
            snapshot = service.metrics.snapshot()

    matched = sum(
        1
        for got, want in zip(report.results, baseline)
        if got is not None
        and got.entities == want.entities
        and got.distances == want.distances
    )
    counters = snapshot["counters"]
    result = ResilienceBenchResult(
        total=report.total,
        completed=report.completed,
        matched=matched,
        throughput_qps=report.throughput_qps,
        p99_ms=report.percentile(0.99) * 1e3,
        worker_kills=controller.fired("pool.worker") + controller.fired("pool.worker.dirty"),
        query_faults=controller.fired("service.query"),
        retried=report.retried,
        worker_restarts=counters["worker_restarts"],
        degradations=counters["degradations"],
        index_rebuilds=counters["index_rebuilds"],
    )
    return result, report
