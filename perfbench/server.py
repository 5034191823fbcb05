"""One benchmark server process: ``QueryService`` + ``make_server``.

Started fresh for every measured server by ``run.py``. It builds the
workload's dataset and engine, binds an ephemeral port on 127.0.0.1 and
prints ``READY <port>`` once it accepts requests; everything before
that line is the benchmark's ``setup_s``.

The HTTP front-end is the service's own ``/v1/query`` handler with two
benchmark-owned additions: HTTP/1.1 keep-alive (so the load generator
holds two persistent connections) and ``POST /bench/*`` control
routes — ``write`` applies one S1-vector write through
``service.pool.execute`` on an ``OnlineUpdater`` attached with
``attach_updater``; ``phase`` marks measurement phases; ``report``
returns spans, counters, the invariant check and the final vectors;
``shutdown`` stops the process.

Usage (normally spawned by run.py): ``python3 perfbench/server.py
--workload topk-uniform [--trace]`` with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
import threading
import time
from urllib.parse import urlparse

import numpy as np

from repro.bench.datasets import ALL_DATASETS
from repro.dynamic.updater import OnlineUpdater
from repro.query.engine import EngineConfig, QueryEngine
from repro.resilience.degrade import validate_engine
from repro.service.server import QueryService, _ServiceHandler, make_server
from repro.shard import ShardedEngine
from tracer import Recorder, install
from workloads import load_specs


class BenchHandler(_ServiceHandler):
    """The service's handler with keep-alive and the ``/bench`` routes.

    ``repro.service.server`` exposes no public handler class; subclassing
    its handler keeps ``/v1/query`` parsing, routing and the response
    envelope exactly as served."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 - stdlib naming
        path = urlparse(self.path).path
        if not path.startswith("/bench/"):
            super().do_POST()
            return
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length) or b"{}")
        try:
            payload = self.server.bench.handle(path, body)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._send_json(200, payload)

    def _handle_v1_query(self, params: dict) -> None:
        with self.server.bench.recorder.span("http.query", {"rid": params.get("rid")}):
            super()._handle_v1_query(params)


class Bench:
    """Benchmark-side state of one server: recorder, phases, updater."""

    def __init__(self, server, service, updater, recorder: Recorder, traced: bool) -> None:
        self.server = server
        self.service = service
        self.updater = updater
        self.recorder = recorder
        self.traced = traced
        self.phases: dict[str, dict] = {}
        self._phase: str | None = None

    def handle(self, path: str, body: dict) -> dict:
        if path == "/bench/write":
            return self.write(body)
        if path == "/bench/phase":
            return self.phase(body.get("name"))
        if path == "/bench/report":
            return self.report(bool(body.get("vectors")))
        if path == "/bench/shutdown":
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return {"ok": True}
        raise ValueError(f"unknown route {path}")

    def write(self, body: dict) -> dict:
        entity = int(body["entity"])
        vector = np.asarray(body["vector"], dtype=np.float64)
        with self.recorder.span("http.write", {"rid": body.get("rid")}):
            report = self.service.pool.execute(
                lambda engine: self.updater.set_entity_vector(entity, vector)
            )
        return {"reindexed": len(report.entities_reindexed)}

    def phase(self, name: str | None) -> dict:
        """Close the open phase (if any) and open ``name`` (if given)."""
        if self._phase is not None:
            self.recorder.active = False
            entry = self.phases[self._phase]
            entry["end"] = self.counters()
            entry["spans"] = self.recorder.spans
            self.recorder.spans = []
            self._phase = None
        if name is not None:
            self.recorder.spans = []
            self.phases[name] = {"start": self.counters()}
            self._phase = name
            self.recorder.active = self.traced
        return {"ok": True}

    def counters(self) -> dict:
        engine = self.service.engine
        metrics = self.service.metrics_snapshot()
        index = engine.index
        snapshot = {
            "time": time.perf_counter(),
            "counters": metrics["counters"],
            "cache": metrics["cache"],
            "node_accesses": index.counters.total_node_accesses,
            "splits": index.splits_performed,
        }
        if getattr(engine, "is_sharded", False):
            stats = engine.shard_stats()
            snapshot["shard_tasks"] = stats["tasks"]
            snapshot["shard_busy"] = stats["busy_seconds"]
        return snapshot

    def report(self, with_vectors: bool) -> dict:
        try:
            self.service.pool.execute(validate_engine)
            invariants = "ok"
        except Exception as exc:  # noqa: BLE001 - reported to the client
            invariants = f"{type(exc).__name__}: {exc}"
        contour = self.service.pool.execute(lambda engine: len(engine.index.contour()))
        body = {
            "invariants": invariants,
            "contour_size": contour,
            "degradation": self.service.ladder.levels(),
            "pool_engines": self.service.pool.num_engines,
            "phases": self.phases,
        }
        if with_vectors:
            matrix = np.ascontiguousarray(self.service.engine.model.entity_vectors())
            body["vectors"] = base64.b64encode(matrix.astype("<f8").tobytes()).decode()
            body["vectors_shape"] = list(matrix.shape)
        return body


def build(workload: str, traced: bool):
    spec = load_specs()[workload]
    dataset = ALL_DATASETS[spec["dataset"]](spec["scale"])
    config = EngineConfig()
    if config.epsilon != spec["epsilon"]:
        raise ValueError("the workload record's epsilon differs from the engine default")
    engine = QueryEngine.from_graph(dataset.graph, config, model=dataset.model)
    if spec["shards"]:
        engine = ShardedEngine.from_engine(
            engine, shards=spec["shards"], scheme="hash", backend="thread"
        )
    service = QueryService(engine, workers=4)
    updater = None
    if spec["mix"]["write"] > 0:
        updater = OnlineUpdater(engine)
        service.attach_updater(updater)
    recorder = Recorder()
    if traced:
        install(recorder, service, updater)
    server = make_server(service, port=0)
    server.RequestHandlerClass = BenchHandler
    server.bench = Bench(server, service, updater, recorder, traced)
    return server, service


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    server, service = build(args.workload, args.trace)
    sys.stdout.write(f"READY {server.server_address[1]}\n")
    sys.stdout.flush()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
