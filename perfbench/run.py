"""Serving benchmark: seeded ``/v1/query`` workloads against fresh servers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload topk-uniform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
two fresh server processes, each timed through set-up, then sent the
warm-up block and driven at the low and the high rate. ``--trace 1``
reports the per-layer metrics: one untraced server (warm-up, fixed
rates, a closed-loop saturation block, then the rate ladder) and one
server with the layer wrappers of ``tracer.py`` driven through the same
warm-up and fixed rates, plus the exact-scan baseline run on the traced
server's specs off the request path. ``--workload all`` runs
every workload in both modes.

Every served answer goes through ``checker.py`` and every server's index
through ``validate_engine``. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when any check failed. Without ``src/repro`` beside
it, for an unknown workload or a server that does not start, it exits
non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
sys.path.insert(0, str(SRC))

from checker import Checker, ExactScan, recall  # noqa: E402
from layers import layer_metrics, ms  # noqa: E402
from loadgen import THREADS, Client, closed_loop, open_loop  # noqa: E402
from workloads import load_specs, make_stream, repeat_share  # noqa: E402

from repro.bench.datasets import ALL_DATASETS  # noqa: E402
from repro.bench.metrics import relative_accuracy  # noqa: E402

#: Operations in the fixed warm-up block (closed loop, both connections).
WARMUP_OPS = 200
#: Fresh servers per end-to-end run; ``--seconds`` is split evenly between them.
SERVERS = 2
#: Shares of a server's seconds for the low and the high rate, and for the
#: closed-loop saturation block of a traced run (sized at twice the high rate).
LOW_SHARE, HIGH_SHARE, SATURATION_SHARE = 0.3, 0.7, 0.2
#: Share of ``--seconds`` for the rate ladder of a traced run.
LADDER_SHARE = 0.4
#: A ladder rung whose generator lag p99 exceeds this is flagged on stderr.
GEN_LAG_LIMIT_S = 0.005
#: Post-run sample on the mixed workload: top-k reads and aggregate pairs.
POST_TOPK, POST_AGG = 100, 40
#: Specs the exact-scan baseline re-runs (off the request path), and
#: served top-k answers per server whose recall is measured.
SCAN_SPECS = RECALL_SPECS = 200
SETUP_TIMEOUT_S = 120.0

#: With two or more CPUs the server runs on the first and the generator on
#: the others, so the generator's threads never take the server's CPU.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(_CPUS[:1]) if len(_CPUS) > 1 else set()
GENERATOR_CPUS = set(_CPUS[1:]) if len(_CPUS) > 1 else set()


def _out(line: str = "") -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _err(line: str) -> None:
    sys.stderr.write(line + "\n")
    sys.stderr.flush()


# -- inputs ------------------------------------------------------------------


def load_dataset(spec: dict):
    """The workload's dataset for the checker, cached on disk by the
    hash of the source tree (servers always build their own)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cached = CACHE / f"{spec['dataset']}-{spec['scale']}-{digest.hexdigest()[:16]}.pickle"
    if cached.exists():
        return pickle.loads(cached.read_bytes())
    dataset = ALL_DATASETS[spec["dataset"]](spec["scale"])
    CACHE.mkdir(exist_ok=True)
    partial = cached.with_suffix(f".{os.getpid()}.tmp")
    partial.write_bytes(pickle.dumps(dataset))
    partial.replace(cached)
    return dataset


class Plan:
    """The seeded stream, cut into the warm-up block, per-server segments
    (low rate, high rate, saturation block) and the ladder's rungs."""

    def __init__(self, spec: dict, dataset, seed: int, seconds: float) -> None:
        rates = spec["rates_qps"]
        share = seconds / SERVERS
        sizes = {
            "low": math.ceil(rates["low"] * share * LOW_SHARE),
            "high": math.ceil(rates["high"] * share * HIGH_SHARE),
            "saturation": math.ceil(2 * rates["high"] * share * SATURATION_SHARE),
        }
        rung_seconds = seconds * LADDER_SHARE / len(spec["ladder_qps"])
        self.rungs = [math.ceil(rate * rung_seconds) for rate in spec["ladder_qps"]]
        total = WARMUP_OPS + SERVERS * sum(sizes.values()) + sum(self.rungs)
        ops = make_stream(spec, dataset, seed, total)
        self.warmup = ops[:WARMUP_OPS]
        at = WARMUP_OPS
        self.servers: list[dict[str, list]] = []
        for _ in range(SERVERS):
            segments = {}
            for name, size in sizes.items():
                segments[name] = ops[at : at + size]
                at += size
            self.servers.append(segments)
        self.ladder_ops = ops[at:]


# -- one server process ------------------------------------------------------


class Server:
    """A fresh ``server.py`` process plus the generator's connections."""

    def __init__(self, workload: str, traced: bool) -> None:
        # A fixed hash seed keeps set and dict orders, and so the work
        # done per request, the same in every server process.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        command = [sys.executable, str(HERE / "server.py"), "--workload", workload]
        if traced:
            command.append("--trace")
        start = perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            text=True,
        )
        if SERVER_CPUS:
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        timer = threading.Timer(SETUP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        self.setup_s = perf_counter() - start
        if not line.startswith("READY "):
            self._stop()
            raise RuntimeError(f"server for {workload} did not start")
        port = int(line.split()[1])
        self.control = Client(port)
        self.clients = [Client(port) for _ in range(THREADS)]
        self.next_rid = 0

    def call(self, route: str, payload: dict | None = None) -> dict:
        status, body = self.control.post(f"/bench/{route}", payload or {})
        if status != 200:
            raise RuntimeError(f"/bench/{route}: {body}")
        return body

    def rids(self, count: int) -> int:
        first, self.next_rid = self.next_rid, self.next_rid + count
        return first

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def close(self) -> None:
        try:
            self.call("shutdown")
            self.proc.wait(timeout=20)
        except Exception:  # noqa: BLE001 - a stuck server is killed below
            pass
        for client in [self.control, *self.clients]:
            client.close()
        self._stop()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- driving and checking ----------------------------------------------------


class Run:
    """Counts and checks every operation of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.spec = load_specs()[workload]
        self.seed = seed
        self.dataset = load_dataset(self.spec)
        self.plan = Plan(self.spec, self.dataset, seed, seconds)
        self.attempted = 0
        self.failures: list[str] = []

    def checker(self) -> Checker:
        return Checker(self.dataset)

    def drive(self, server: Server, checker, ops, rate: float | None = None):
        """Send ``ops`` (open loop at ``rate``, closed loop if None) and
        check every answer."""
        first = server.rids(len(ops))
        if rate is None:
            records = closed_loop(server.clients, ops, first)
        else:
            records = open_loop(server.clients, ops, rate, first)
        self.check(checker, ops, records)
        return records

    def check(self, checker, ops, records) -> None:
        self.attempted += len(ops)
        before = len(checker.failures)
        for op, record in zip(ops, records):
            if op.kind == "write":
                checker.add_write(op, record)
        for op, record in zip(ops, records):
            if op.kind != "write":
                checker.check_read(op, record)
        self.failures.extend(checker.failures[before:])

    def warmup(self, server: Server, checker) -> float:
        """Wall time of the warm-up block, first send to last reply."""
        records = self.drive(server, checker, self.plan.warmup)
        return max(r.done for r in records) - min(r.sent for r in records)

    def phase(self, server: Server, checker, name: str, ops, rate: float):
        server.call("phase", {"name": name})
        records = self.drive(server, checker, ops, rate)
        server.call("phase", {"name": None})
        return records

    def finish(self, server: Server, checker, vectors: bool = False) -> dict:
        """Final report of one server; checks its index invariants and,
        with ``vectors``, that its final S1 vectors are the written ones."""
        report = server.call("report", {"vectors": vectors})
        if report["invariants"] != "ok":
            self.failures.append(f"validate_engine: {report['invariants']}")
        if any(level["level"] for level in report["degradation"]):
            self.failures.append(f"index degraded: {report['degradation']}")
        if vectors:
            shape = report["vectors_shape"]
            final = np.frombuffer(base64.b64decode(report["vectors"]), dtype="<f8")
            report["final_vectors"] = final.reshape(shape).copy()
            self.verify_vectors(checker, report["final_vectors"])
        return report

    def verify_vectors(self, checker, final: np.ndarray) -> None:
        if final.shape != checker.vectors.shape:
            self.failures.append(f"final vectors have shape {final.shape}")
            return
        for entity in range(len(final)):
            expected = checker.admissible(entity, math.inf, math.inf)
            if not any(np.array_equal(final[entity], v) for v in expected):
                self.failures.append(f"final vector of entity {entity} is not the written one")

    def post_run(self, server: Server, final: np.ndarray) -> tuple[float, float]:
        """Recall@k of a fixed seeded top-k sample and mean aggregate
        accuracy against the full-access estimate, on the final state."""
        checker = self.checker()
        checker.vectors = final
        sample = make_stream(self.spec, self.dataset, self.seed + 7919, 4000)
        topk = [op for op in sample if op.kind == "topk"][:POST_TOPK]
        aggs = [op for op in sample if op.kind == "aggregate"][:POST_AGG]
        pairs = [x for op in aggs for x in (op, dataclasses.replace(op, access_fraction=1.0))]
        records = self.drive(server, checker, topk + pairs)
        scan = ExactScan(checker)
        recalls = [
            recall(r.body["result"]["entities"], scan.topk(op))
            for op, r in zip(topk, records)
            if r.status == 200
        ]
        served = records[len(topk) :]
        accuracy = [
            relative_accuracy(a.body["result"]["value"], b.body["result"]["value"])
            for a, b in zip(served[0::2], served[1::2])
            if a.status == 200 and b.status == 200
        ]
        return float(np.mean(recalls)), float(np.mean(accuracy))


def read_latencies(ops, records, kind: str = "topk") -> list[float]:
    return [r.latency for op, r in zip(ops, records) if op.kind == kind]


def served_recall(ops, records, checker) -> float:
    """Mean recall@k of the first ``RECALL_SPECS`` served top-k answers."""
    scan = ExactScan(checker)
    served = [(op, r) for op, r in zip(ops, records) if op.kind == "topk" and r.status == 200]
    values = [
        recall(r.body["result"]["entities"], scan.topk(op)) for op, r in served[:RECALL_SPECS]
    ]
    return float(np.mean(values))


def ladder(run: Run, server: Server, checker) -> float:
    """The highest rate meeting the p95 limit without a growing backlog.

    Rungs of the fixed ladder run in ascending order until one fails. A
    rung is judged on latency from due minus the generator's own lag, so
    lateness the generator caused is not counted as server latency; a
    rung whose lag p99 exceeds ``GEN_LAG_LIMIT_S`` is flagged on stderr.
    The result is the achieved rate of the last passing rung, moved
    toward the failing rung's offered rate by where the p95 limit falls
    between the two rungs' p95 (linear interpolation), so it does not
    jump a whole rung when the boundary moves a little; below the first
    rung the line runs from (0 req/s, 0 ms).
    """
    spec = run.spec
    limit = spec["p95_limit_ms"] / 1000.0
    best, best_p95 = 0.0, 0.0
    offset = 0
    for rate, count in zip(spec["ladder_qps"], run.plan.rungs):
        ops = run.plan.ladder_ops[offset : offset + count]
        offset += count
        failed_before = len(run.failures)
        records = run.drive(server, checker, ops, rate)
        tail = records[-max(1, len(records) // 4) :]
        backlog = float(np.median([r.sent - r.due - r.lag for r in tail]))
        lag = ms([r.lag for r in records], 99)
        p95 = float(np.percentile([r.latency - r.lag for r in records], 95))
        achieved = len(records) / (max(r.done for r in records) - records[0].due)
        failed = len(run.failures) > failed_before or p95 > limit or backlog > limit / 2
        flag = "  (generator behind)" if lag > GEN_LAG_LIMIT_S * 1000.0 else ""
        _err(
            f"  rung {rate:>6.1f} qps: achieved {achieved:7.2f}, p95 {p95 * 1000:7.2f} ms, "
            f"backlog {backlog * 1000:6.2f} ms, gen lag p99 {lag:5.2f} ms -> "
            f"{'fail' if failed else 'pass'}{flag}"
        )
        if not failed:
            best, best_p95 = achieved, p95
            continue
        if p95 > limit:
            share = min(1.0, max(0.0, (limit - best_p95) / (p95 - best_p95)))
            best += share * (rate - best)
        return best
    _err("  every rung passed: max_rate_qps is capped at the ladder's top")
    return best


# -- the two modes -----------------------------------------------------------


def end_to_end(run: Run) -> dict:
    rates = run.spec["rates_qps"]
    mixed = run.spec["mix"]["write"] > 0
    setups, recalls, rss, high_latencies = [], [], [], []
    for segments in run.plan.servers:
        with Server(run.workload, traced=False) as server:
            checker = run.checker()
            setups.append(server.setup_s)
            run.warmup(server, checker)
            low = run.phase(server, checker, "low", segments["low"], rates["low"])
            high = run.phase(server, checker, "high", segments["high"], rates["high"])
            report = run.finish(server, checker, vectors=mixed)
            if mixed:
                recalls.append(run.post_run(server, report["final_vectors"])[0])
            else:
                ops = segments["low"] + segments["high"]
                recalls.append(served_recall(ops, low + high, checker))
            rss.append(server.peak_rss_mb())
        high_latencies += read_latencies(segments["high"], high)
    return {
        "setup_s": float(np.median(setups)),
        "read.p50_ms.high": ms(high_latencies),
        "recall_at_k": float(np.mean(recalls)),
        "server_rss_mb": max(rss),
    }


def per_layer(run: Run) -> dict:
    segments = run.plan.servers[0]
    low_ops, high_ops = segments["low"], segments["high"]
    rates = run.spec["rates_qps"]
    mixed = run.spec["mix"]["write"] > 0
    with Server(run.workload, traced=False) as server:
        checker = run.checker()
        warmup = run.warmup(server, checker)
        low = run.phase(server, checker, "low", low_ops, rates["low"])
        high = run.phase(server, checker, "high", high_ops, rates["high"])
        block = run.drive(server, checker, segments["saturation"])
        saturation = len(block) / (max(r.done for r in block) - block[0].sent)
        max_rate = ladder(run, server, checker)
        report = run.finish(server, checker, vectors=mixed)
        accuracy = run.post_run(server, report["final_vectors"])[1] if mixed else 0.0
    with Server(run.workload, traced=True) as server:
        checker = run.checker()
        run.warmup(server, checker)
        t_low = run.phase(server, checker, "low", low_ops, rates["low"])
        t_high = run.phase(server, checker, "high", high_ops, rates["high"])
        traced = run.finish(server, checker, vectors=mixed)
    wire = {
        first_rid + i: r.wire
        for first_rid, records in ((WARMUP_OPS, t_low), (WARMUP_OPS + len(low_ops), t_high))
        for i, r in enumerate(records)
    }
    metrics = layer_metrics(traced, ["low", "high"], wire)

    scan = ExactScan(checker)
    specs = [op for op in low_ops + high_ops if op.kind == "topk"][:SCAN_SPECS]
    scan_times = []
    for op in specs:
        start = perf_counter()
        scan.topk(op)
        scan_times.append(perf_counter() - start)
    untraced_p50 = ms(read_latencies(high_ops, high))
    metrics.update(
        {
            "scan.topk_p50_ms": ms(scan_times),
            "warmup_s": warmup,
            "read.p50_ms.low": ms(read_latencies(low_ops, low)),
            "saturation_qps": saturation,
            "max_rate_qps": max_rate,
            "read.p99_ms.low": ms(read_latencies(low_ops, low), 99),
            "read.p99_ms.high": ms(read_latencies(high_ops, high), 99),
            "gen.lag_p99_ms.low": ms([r.lag for r in low], 99),
            "gen.lag_p99_ms.high": ms([r.lag for r in high], 99),
            "trace.overhead": ms(read_latencies(high_ops, t_high)) / untraced_p50 - 1.0,
            "repeat_share": repeat_share(run.plan.warmup + low_ops + high_ops),
            "agg.p50_ms.high": ms(read_latencies(high_ops, high, "aggregate")),
            "write.p50_ms.high": ms(read_latencies(high_ops, high, "write")),
            "agg.accuracy": accuracy,
        }
    )
    metrics["index_vs_scan"] = (
        metrics["engine.topk_p50_ms"] / metrics["scan.topk_p50_ms"]
        if metrics["scan.topk_p50_ms"]
        else 0.0
    )
    metrics["failed_share"] = len(run.failures) / run.attempted
    return metrics


# -- entry point -------------------------------------------------------------


def declared(section: str) -> dict[str, str]:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    run = Run(workload, seed, seconds)
    _err(f"{workload} seed={seed} trace={int(trace)}")
    values = per_layer(run) if trace else end_to_end(run)
    units = declared("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metric set differs from BENCHMARK.json: {set(values) ^ set(units)}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    for name, metric in metrics.items():
        _out(f"{workload:16s} {name:28s} {metric['value']:12.6g} {metric['unit']}")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serving benchmark over /v1/query.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if GENERATOR_CPUS:
        os.sched_setaffinity(0, GENERATOR_CPUS)
    if args.workload == "all":
        jobs = [(w, t) for w in load_specs() for t in (False, True)]
    elif args.workload in load_specs():
        jobs = [(args.workload, bool(args.trace))]
    else:
        _err(f"unknown workload {args.workload!r}; expected one of {list(load_specs())}")
        return 2
    attempted, failures, metrics = 0, [], {}
    for workload, trace in jobs:
        run, values = measure(workload, args.seed, args.seconds, trace)
        attempted += run.attempted
        failures += run.failures
        prefix = f"{workload}/" if len(jobs) > 1 else ""
        metrics.update({prefix + name: metric for name, metric in values.items()})
    for failure in failures[:20]:
        _err(f"check failed: {failure}")
    _out(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
