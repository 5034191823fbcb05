"""Serving metrics, backed by the unified observability registry.

:class:`ServingMetrics` keeps its historical API — ``increment`` /
``record_request`` / ``snapshot`` / ``report`` — but its storage is a
:class:`repro.obs.metrics.MetricsRegistry`: every counter and histogram
shares one lock, so a snapshot is a single consistent cut (a request
counted in ``requests`` is also counted in the latency histogram of the
same snapshot), and the whole registry renders to the Prometheus text
exposition via :meth:`ServingMetrics.to_prometheus` for
``/metrics?format=prometheus``.

``LatencyHistogram`` is the registry histogram class re-exported under
its original name; existing call sites and tests keep working.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.metrics import Histogram, MetricsRegistry

#: Back-compat alias: the serving layer's histogram is the registry's.
LatencyHistogram = Histogram

#: Counters pre-registered on every service so reports and snapshots
#: always show the full set (zeros included), in one stable order.
_COUNTERS = (
    "requests",
    "errors",
    "rejected",
    "deadline_exceeded",
    "cache_hits",
    "cache_misses",
    "splits_triggered",
    "points_examined",
    "invalidations",
    "shard_fanouts",
    # fault-tolerance accounting
    "degradations",
    "index_rebuilds",
    "engines_repaired",
    "worker_restarts",
    "workers_hung",
    "breaker_transitions",
    "breaker_rejections",
)


class ServingMetrics:
    """All counters and histograms of one :class:`QueryService`.

    ``queue_depth`` and ``cache_stats`` are pull-style callables wired in
    by the service so the snapshot always reflects live state.
    """

    def __init__(
        self,
        queue_depth: Callable[[], int] | None = None,
        cache_stats: Callable[[], object] | None = None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.latency = self.registry.histogram("request_latency_seconds")
        self.queue_wait = self.registry.histogram("queue_wait_seconds")
        for name in _COUNTERS:
            self.registry.counter(name)
        self._queue_depth = queue_depth
        self._cache_stats = cache_stats

    def register_gauge(self, name: str, fn: Callable[[], object]) -> None:
        """Attach a pull-style gauge (e.g. breaker state, WAL lag); its
        value appears under ``gauges`` in every snapshot and its numeric
        leaves in the Prometheus exposition."""
        self.registry.gauge(name, fn)

    def increment(self, name: str, amount: int = 1) -> None:
        if name not in _COUNTERS:
            raise KeyError(name)
        self.registry.counter(name).inc(amount)

    def record_request(
        self,
        elapsed_seconds: float,
        cache_hit: bool = False,
        splits_triggered: int | None = None,
        points_examined: int = 0,
    ) -> None:
        """Account one completed request. An indexed top-k that missed
        the cache passes the splits it triggered and the points it
        examined to feed the index-side counters (``splits_triggered``
        None leaves them untouched). The whole update happens under the
        registry lock, so no snapshot can observe the request in one
        metric but not another."""
        with self.registry.lock:
            self.latency.observe(elapsed_seconds)
            self.registry.counter("requests").inc()
            if cache_hit:
                self.registry.counter("cache_hits").inc()
            else:
                self.registry.counter("cache_misses").inc()
            if splits_triggered is not None:
                self.registry.counter("splits_triggered").inc(splits_triggered)
                self.registry.counter("points_examined").inc(points_examined)

    def record_queue_wait(self, seconds: float) -> None:
        self.queue_wait.observe(seconds)

    @property
    def cache_hit_rate(self) -> float:
        with self.registry.lock:
            hits = self.registry.counter("cache_hits")._value
            total = hits + self.registry.counter("cache_misses")._value
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """A JSON-serializable view of everything (the ``/metrics`` body).

        Counters and both histograms are read under one lock acquisition
        — atomic with respect to concurrent ``record_request`` calls —
        then the pull gauges (which take other subsystems' locks) are
        evaluated outside it.
        """
        with self.registry.lock:
            counters = self.registry.counters()
            latency = self.latency.snapshot()
            queue_wait = self.queue_wait.snapshot()
        hits = counters["cache_hits"]
        misses = counters["cache_misses"]
        snap = {
            "counters": counters,
            "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "latency": latency,
            "queue_wait": queue_wait,
        }
        if self._queue_depth is not None:
            snap["queue_depth"] = int(self._queue_depth())
        gauges = self.registry.gauges()
        if gauges:
            snap["gauges"] = gauges
        if self._cache_stats is not None:
            stats = self._cache_stats()
            snap["cache"] = {
                "size": stats.size,
                "capacity": stats.capacity,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "expirations": stats.expirations,
                "invalidations": stats.invalidations,
                "hit_rate": stats.hit_rate,
            }
        return snap

    def to_prometheus(self) -> str:
        """The ``/metrics?format=prometheus`` body: the registry's
        exposition plus the service-level pull values."""
        text = self.registry.to_prometheus(prefix="repro")
        extra: list[str] = []
        if self._queue_depth is not None:
            extra.append("# TYPE repro_queue_depth gauge")
            extra.append(f"repro_queue_depth {int(self._queue_depth())}")
        if self._cache_stats is not None:
            stats = self._cache_stats()
            for field in ("size", "capacity", "hits", "misses", "evictions",
                          "expirations", "invalidations"):
                extra.append(f"# TYPE repro_cache_{field} gauge")
                extra.append(f"repro_cache_{field} {getattr(stats, field)}")
        if extra:
            text += "\n".join(extra) + "\n"
        return text

    def report(self) -> str:
        """A plain-text, human-first account of the snapshot."""
        snap = self.snapshot()
        counters = snap["counters"]
        lines = ["serving metrics", "---------------"]
        for name in sorted(counters):
            lines.append(f"{name:<20} {counters[name]}")
        if "queue_depth" in snap:
            lines.append(f"{'queue_depth':<20} {snap['queue_depth']}")
        lines.append(f"{'cache_hit_rate':<20} {snap['cache_hit_rate']:.3f}")
        for label, hist in (("latency", snap["latency"]), ("queue_wait", snap["queue_wait"])):
            lines.append(
                f"{label:<11} n={hist['count']} mean={hist['mean_seconds'] * 1e3:.2f}ms "
                f"p50={hist['p50'] * 1e3:.2f}ms p95={hist['p95'] * 1e3:.2f}ms "
                f"p99={hist['p99'] * 1e3:.2f}ms max={hist['max_seconds'] * 1e3:.2f}ms"
            )
        return "\n".join(lines)
