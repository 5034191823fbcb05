"""Observability overhead benchmark: tracing on vs. off, same engine.

The tracing layer promises to be invisible when disabled and cheap when
enabled. This runner quantifies both on a warmed engine: it interleaves
measurement rounds with tracing disabled and enabled over one identical
query cycle — same engine, same index state for both modes, since
tracing observes but never steers — and reports the per-query overhead
fraction. The CI smoke step runs it with ``--check``:

    python -m repro.bench.obs --scale 1.0 --check --max-overhead 0.10

The per-query tracing cost is roughly fixed (a handful of spans per
query), so the overhead *fraction* shrinks as the dataset — and thus
the real per-query work — grows; gate at scale 1.0 or larger, where
the signal clears the run-to-run noise floor.

which exits non-zero when enabled-tracing overhead exceeds the bound.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass

from repro.bench.datasets import BenchDataset, movie_dataset
from repro.bench.workloads import make_workload
from repro.obs import trace
from repro.obs.recorder import FlightRecorder
from repro.query.engine import EngineConfig, QueryEngine


@dataclass(frozen=True)
class ObsOverheadResult:
    """Per-query cost of the instrumentation, measured both ways."""

    queries_per_round: int
    rounds_per_mode: int
    disabled_mean_us: float
    enabled_mean_us: float
    overhead_fraction: float  # (enabled - disabled) / disabled
    spans_per_query: float

    def summary(self) -> str:
        return (
            f"tracing overhead: disabled {self.disabled_mean_us:.1f} us/query, "
            f"enabled {self.enabled_mean_us:.1f} us/query "
            f"({self.overhead_fraction:+.1%}, {self.spans_per_query:.1f} spans/query; "
            f"{self.rounds_per_mode} rounds x {self.queries_per_round} queries per mode)"
        )

    def as_dict(self) -> dict:
        return {
            "queries_per_round": self.queries_per_round,
            "rounds_per_mode": self.rounds_per_mode,
            "disabled_mean_us": self.disabled_mean_us,
            "enabled_mean_us": self.enabled_mean_us,
            "overhead_fraction": self.overhead_fraction,
            "spans_per_query": self.spans_per_query,
        }


def run_overhead_benchmark(
    dataset: BenchDataset | None = None,
    scale: float = 1.0,
    queries_per_round: int = 64,
    rounds_per_mode: int = 8,
    k: int = 5,
    seed: int = 21,
) -> ObsOverheadResult:
    """Measure warm per-query latency with tracing off vs. on.

    Rounds alternate disabled/enabled on the same engine so cache
    warmth, index shape, and thermal drift hit both modes equally.
    """
    was_enabled = trace.enabled()
    trace.disable()
    if dataset is None:
        dataset = movie_dataset(scale)
    engine = QueryEngine.from_graph(
        dataset.graph, EngineConfig(index="cracking"), model=dataset.model
    )
    workload = make_workload(dataset.graph, queries_per_round, seed=seed, skew=0.6)

    def one_round() -> float:
        start = time.perf_counter()
        for query in workload:
            engine.execute(query.spec(k))
        return time.perf_counter() - start

    # Warm-up: crack the index to its steady shape, fill CPU caches.
    for _ in range(2):
        one_round()

    # A realistic enabled-mode pipeline: traces are delivered to a
    # recorder (threshold set high, so the ring stays empty but the
    # listener filter runs for every trace).
    recorder = FlightRecorder(capacity=16, threshold_seconds=1e9)
    trace.add_listener(recorder.record)
    span_count = 0

    def count_spans(record) -> None:
        nonlocal span_count
        span_count += len(record.spans)

    disabled: list[float] = []
    enabled: list[float] = []
    try:
        # Calibration round (not measured): count spans per query.
        # Reading record.spans materializes the span dicts, which the
        # threshold-filtered production path skips, so this listener
        # must not be attached while timing.
        trace.add_listener(count_spans)
        trace.enable()
        one_round()
        trace.remove_listener(count_spans)

        for _ in range(rounds_per_mode):
            trace.disable()
            disabled.append(one_round())
            trace.enable()
            enabled.append(one_round())
    finally:
        trace.enable() if was_enabled else trace.disable()
        trace.remove_listener(recorder.record)
        trace.remove_listener(count_spans)

    total_queries = queries_per_round * rounds_per_mode
    # Interference (GC, scheduler preemption, noisy neighbours) only ever
    # inflates a round, so the minimum per mode is the cleanest estimate
    # of each mode's true cost; rounds alternate so both modes sample the
    # same load profile and a quiet window benefits both minima.
    return ObsOverheadResult(
        queries_per_round=queries_per_round,
        rounds_per_mode=rounds_per_mode,
        disabled_mean_us=sum(disabled) / total_queries * 1e6,
        enabled_mean_us=sum(enabled) / total_queries * 1e6,
        overhead_fraction=min(enabled) / min(disabled) - 1.0,
        spans_per_query=span_count / queries_per_round,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.obs", description=__doc__
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("-k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--json", action="store_true")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the enabled-tracing overhead exceeds --max-overhead",
    )
    parser.add_argument("--max-overhead", type=float, default=0.10)
    args = parser.parse_args(argv)

    result = run_overhead_benchmark(
        scale=args.scale,
        queries_per_round=args.queries,
        rounds_per_mode=args.rounds,
        k=args.k,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(result.summary())
    if args.check and result.overhead_fraction > args.max_overhead:
        print(
            f"FAIL: enabled-tracing overhead {result.overhead_fraction:.1%} "
            f"exceeds the {args.max_overhead:.0%} bound"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
