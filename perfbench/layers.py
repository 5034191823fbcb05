"""Per-layer metrics from one traced server's spans and counters.

Self time is a span's duration minus the part of it that its child
spans cover (children on other threads may overlap each other; their
union is subtracted once). "Per query" means per engine query: one
``engine.topk`` (a top-k that missed the cache) or one ``agg.estimate``.
A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

MS = 1000.0


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, name, start, end, attrs) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTree:
    def __init__(self, rows: list) -> None:
        self.spans = [Span(*row) for row in rows]
        self.by_id = {span.sid: span for span in self.spans}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            self.children[span.parent].append(span)
        self._roots: dict[int, Span] = {}

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_time(self, span: Span) -> float:
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end)) for c in self.children[span.sid]
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def root(self, span: Span) -> Span:
        found = self._roots.get(span.sid)
        if found is None:
            parent = self.by_id.get(span.parent)
            found = span if parent is None else self.root(parent)
            self._roots[span.sid] = found
        return found

    def request_kind(self, span: Span) -> str:
        """'topk', 'aggregate' or 'write' for the request a span serves."""
        root = self.root(span)
        if root.name == "http.write":
            return "write"
        for child in self.children[root.sid]:
            if child.name == "service.execute":
                return child.attrs.get("mode", "")
        return ""


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def ms(values, q: float = 50.0) -> float:
    """The ``q``-th percentile of ``values`` (seconds) in milliseconds."""
    return float(np.percentile(values, q)) * MS if len(values) else 0.0


def _delta(phases: list[dict], key: str) -> float:
    return sum(phase["end"][key] - phase["start"][key] for phase in phases)


def _counter(phases: list[dict], section: str, key: str) -> float:
    return sum(phase["end"][section][key] - phase["start"][section][key] for phase in phases)


def layer_metrics(report: dict, phase_names: list[str], wire_by_rid: dict[int, float]) -> dict:
    """Per-layer metrics over the named phases of one traced server."""
    phases = [report["phases"][name] for name in phase_names]
    tree = SpanTree([row for phase in phases for row in phase["spans"]])
    wall = sum(phase["end"]["time"] - phase["start"]["time"] for phase in phases)
    topk = tree.named("engine.topk")
    estimates = tree.named("agg.estimate")
    engine_queries = len(topk) + len(estimates)
    writes = tree.named("http.write")
    sharded = "shard_tasks" in phases[0]["start"]

    def per_query(total: float) -> float:
        return total / engine_queries if engine_queries else 0.0

    def index_ms(op: str) -> float:
        spans = [s for s in tree.named(f"index.{op}") if tree.request_kind(s) == "topk"]
        return sum(s.duration for s in spans) * MS / len(topk) if topk else 0.0

    executes = {}
    for span in tree.named("service.execute"):
        executes[tree.root(span).sid] = span
    http_self = []
    for root in tree.named("http.query"):
        execute = executes.get(root.sid)
        rid = root.attrs.get("rid")
        if execute is not None and execute.attrs.get("mode") == "topk" and rid in wire_by_rid:
            http_self.append(wire_by_rid[rid] - execute.duration)

    runs = tree.named("pool.run")
    waits = [s.attrs["wait"] for s in runs]
    hits = _counter(phases, "cache", "hits")
    misses = _counter(phases, "cache", "misses")
    examined = sum(s.attrs["examined"] for s in topk)
    returned = sum(s.attrs["returned"] for s in topk)
    updates = [
        s for s in tree.spans
        if s.name in ("index.delete", "index.insert") and tree.request_kind(s) == "write"
    ]
    set_vector = tree.named("updater.set_vector")
    metrics = {
        "http.self_p50_ms": ms(http_self),
        "service.execute_p50_ms": ms(
            [s.duration for s in executes.values() if s.attrs.get("mode") == "topk"]
        ),
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions_per_write": (
            _counter(phases, "cache", "invalidations") / len(writes) if writes else 0.0
        ),
        "pool.queue_wait_p50_ms": ms(waits),
        "pool.queue_wait_p99_ms": ms(waits, 99),
        "pool.busy_share": (
            sum(s.duration for s in runs) / (wall * report["pool_engines"]) if wall else 0.0
        ),
        "ladder.self_p50_ms": ms([tree.self_time(s) for s in tree.named("ladder.run_topk")]),
        "ladder.degradations": _counter(phases, "counters", "degradations"),
        "engine.topk_p50_ms": ms([s.duration for s in topk]),
        "topk.points_examined": _mean([s.attrs["examined"] for s in topk]),
        "topk.useful_share": returned / examined if examined else 0.0,
        "agg.estimate_p50_ms": ms([s.duration for s in estimates]),
        "agg.ball_size": _mean([s.attrs["ball_size"] for s in estimates]),
        "agg.accessed": _mean([s.attrs["accessed"] for s in estimates]),
        "index.probe_ms": index_ms("probe"),
        "index.search_ms": index_ms("search"),
        "index.refine_ms": index_ms("refine"),
        "index.stats_ms": index_ms("stats"),
        "index.node_accesses": per_query(_delta(phases, "node_accesses")),
        "index.splits_per_100q": 100.0 * per_query(_delta(phases, "splits")),
        "index.contour_size": float(report["contour_size"]),
        "index.update_ms": sum(s.duration for s in updates) * MS / len(writes) if writes else 0.0,
        "updater.set_vector_p50_ms": ms([s.duration for s in set_vector]),
        "updater.reindexed_per_write": _mean([s.attrs["reindexed"] for s in set_vector]),
    }
    if sharded:
        metrics.update(_shard_metrics(tree, phases, topk))
    else:
        metrics.update(dict.fromkeys(SHARD_METRICS, 0.0))
    return metrics


SHARD_METRICS = (
    "shard.tasks_per_query", "shard.scatter_p50_ms", "shard.merge_p50_ms",
    "shard.points_examined", "shard.busy_skew",
)


def _shard_metrics(tree: SpanTree, phases: list[dict], topk: list[Span]) -> dict:
    shards = len(phases[0]["start"]["shard_tasks"])
    tasks = [0.0] * shards
    busy = [0.0] * shards
    for phase in phases:
        for i in range(shards):
            tasks[i] += phase["end"]["shard_tasks"][i] - phase["start"]["shard_tasks"][i]
            busy[i] += phase["end"]["shard_busy"][i] - phase["start"]["shard_busy"][i]
    mean_busy = sum(busy) / shards
    return {
        "shard.tasks_per_query": sum(tasks) / len(topk) if topk else 0.0,
        "shard.scatter_p50_ms": ms([s.duration for s in tree.named("shard.scatter")]),
        "shard.merge_p50_ms": ms([tree.self_time(s) for s in topk]),
        "shard.points_examined": _mean([s.attrs["examined"] for s in topk]),
        "shard.busy_skew": max(busy) / mean_busy if mean_busy else 0.0,
    }
