"""The load generator: two threads, each with one keep-alive connection.

``open_loop`` sends a schedule of operations at a fixed rate regardless
of replies (constant spacing). Each thread takes the next due operation
when it is free, sleeps until it is due and sends it, so when both
connections are busy the backlog waits in the generator and every
latency is timed from when the request was due. ``lag`` is the part of
the lateness the generator itself caused: send time minus the later of
the due time and the moment the thread became free.

``closed_loop`` sends operations back to back on both connections (the
fixed warm-up block).
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass
from time import perf_counter, sleep

THREADS = 2


@dataclass(slots=True)
class Record:
    """One operation as the generator saw it."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    lag: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        """Seconds from due to reply."""
        return self.done - self.due

    @property
    def wire(self) -> float:
        """Seconds from send to reply."""
        return self.done - self.sent


class Client:
    """A small JSON-over-HTTP client on one persistent connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        data = json.dumps(payload).encode()
        try:
            self._conn.request(
                "POST", path, body=data, headers={"Content-Type": "application/json"}
            )
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            raise
        return response.status, json.loads(raw)

    def close(self) -> None:
        self._conn.close()


def _send(client: Client, op, record: Record, rid: int) -> None:
    record.sent = perf_counter()
    try:
        record.status, record.body = client.post(op.path, op.body(rid))
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = perf_counter()


def _drive(clients: list[Client], ops: list, start_rid: int, offsets: list[float] | None):
    """Run ``ops`` over the clients' threads; ``offsets`` (seconds after
    start) make it an open loop, ``None`` a closed loop."""
    records: list[Record | None] = [None] * len(ops)
    lock = threading.Lock()
    cursor = iter(range(len(ops)))
    origin = perf_counter() + 0.01

    def worker(client: Client) -> None:
        free = origin
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = origin + offsets[i] if offsets is not None else perf_counter()
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            record = Record(i, due)
            _send(client, ops[i], record, start_rid + i)
            record.lag = record.sent - max(due, free)
            free = record.done
            records[i] = record

    threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def open_loop(clients, ops, rate: float, start_rid: int = 0) -> list[Record]:
    """Send ``ops`` at ``rate`` per second, constant spacing."""
    return _drive(clients, ops, start_rid, [i / rate for i in range(len(ops))])


def closed_loop(clients, ops, start_rid: int = 0) -> list[Record]:
    """Send ``ops`` back to back on every connection."""
    return _drive(clients, ops, start_rid, None)
