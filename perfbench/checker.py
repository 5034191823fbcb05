"""The answer checker: every served answer is checked against the model.

A top-k answer must hold at most k distinct entities in ascending
distance order, none of them excluded (a known neighbour of the anchor
or the anchor itself), and each distance must equal the S1 distance
from the spec's query point recomputed here. An aggregate must be
finite with ``accessed <= ball_size``.

Writes make the expected vectors time-dependent. The checker keeps every
vector each entity was written to, with the write's send and reply
times, and accepts a distance if some *admissible* pair of anchor and
entity vectors reproduces it: a version is admissible for a read unless
it was written after the read's reply, or a later write to the same
entity had completed before the read was sent. A cached answer that
outlived a completed write therefore fails.
"""

from __future__ import annotations

import math

import numpy as np

from repro.index.linear import ExhaustiveScan

#: Relative tolerance on a recomputed distance (float64 norms).
RTOL = 1e-9


class Checker:
    def __init__(self, dataset) -> None:
        self.graph = dataset.graph
        self.vectors = np.array(dataset.model.entity_vectors(), dtype=np.float64)
        self.relations = np.array(dataset.model.relation_vectors(), dtype=np.float64)
        self.writes: dict[int, list[tuple[float, float, np.ndarray]]] = {}
        self.failures: list[str] = []

    # -- bookkeeping -------------------------------------------------------

    def fail(self, record, reason: str) -> bool:
        self.failures.append(f"request {record.index}: {reason}")
        return False

    def add_write(self, op, record) -> bool:
        """Register a served write; must be called before checking the
        reads it may overlap."""
        if record.error or record.status != 200:
            return self.fail(record, f"write failed: {record.error or record.body}")
        self.writes.setdefault(op.entity, []).append(
            (record.sent, record.done, np.asarray(op.vector, dtype=np.float64))
        )
        return True

    def admissible(self, entity: int, sent: float, done: float) -> list[np.ndarray]:
        history = self.writes.get(entity, ())
        versions = []
        if not any(w_done < sent for _, w_done, _ in history):
            versions.append(self.vectors[entity])
        for w_sent, w_done, vector in history:
            if w_sent >= done:
                continue
            superseded = any(s > w_done and d < sent for s, d, _ in history)
            if not superseded:
                versions.append(vector)
        return versions

    def exclude(self, entity: int, relation: int, direction: str) -> frozenset[int]:
        if direction == "tail":
            known = self.graph.tails(entity, relation)
        else:
            known = self.graph.heads(entity, relation)
        return frozenset(known) | {entity}

    def query_point(self, anchor: np.ndarray, relation: int, direction: str) -> np.ndarray:
        if direction == "tail":
            return anchor + self.relations[relation]
        return anchor - self.relations[relation]

    # -- checks ------------------------------------------------------------

    def check_topk(self, op, record) -> bool:
        if record.error or record.status != 200 or record.body.get("error"):
            return self.fail(record, f"top-k failed: {record.error or record.body}")
        result = record.body["result"]
        entities = [int(e) for e in result["entities"]]
        distances = [float(d) for d in result["distances"]]
        if len(entities) > op.k or len(entities) != len(distances) or not entities:
            return self.fail(record, f"{len(entities)} entities for k={op.k}")
        if len(set(entities)) != len(entities):
            return self.fail(record, "duplicate entities")
        if any(b < a for a, b in zip(distances, distances[1:])):
            return self.fail(record, "distances not ascending")
        banned = self.exclude(op.entity, op.relation, op.direction) & set(entities)
        if banned:
            return self.fail(record, f"excluded entities returned: {sorted(banned)}")
        if any(not 0 <= e < len(self.vectors) for e in entities):
            return self.fail(record, "unknown entity id")
        points = [
            self.query_point(anchor, op.relation, op.direction)
            for anchor in self.admissible(op.entity, record.sent, record.done)
        ]
        for entity, distance in zip(entities, distances):
            candidates = self.admissible(entity, record.sent, record.done)
            if not any(
                math.isclose(float(np.linalg.norm(v - q)), distance, rel_tol=RTOL, abs_tol=1e-12)
                for q in points
                for v in candidates
            ):
                return self.fail(record, f"distance of entity {entity} is {distance!r}")
        return True

    def check_aggregate(self, op, record) -> bool:
        if record.error or record.status != 200 or record.body.get("error"):
            return self.fail(record, f"aggregate failed: {record.error or record.body}")
        result = record.body["result"]
        if result["kind"] != op.agg:
            return self.fail(record, f"kind {result['kind']} for {op.agg}")
        if not math.isfinite(result["value"]):
            return self.fail(record, f"non-finite value {result['value']}")
        if not 0 <= result["accessed"] <= result["ball_size"]:
            return self.fail(record, f"accessed {result['accessed']} > ball {result['ball_size']}")
        return True

    def check_read(self, op, record) -> bool:
        if op.kind == "topk":
            return self.check_topk(op, record)
        return self.check_aggregate(op, record)


class ExactScan:
    """Exact top-k by the vectorised scan (the same-n baseline)."""

    def __init__(self, checker: Checker, vectors: np.ndarray | None = None) -> None:
        self.checker = checker
        self.vectors = checker.vectors if vectors is None else vectors
        self.scan = ExhaustiveScan(self.vectors, vectorized=True)

    def topk(self, op) -> list[int]:
        checker = self.checker
        point = checker.query_point(self.vectors[op.entity], op.relation, op.direction)
        exclude = checker.exclude(op.entity, op.relation, op.direction)
        return [e for e, _ in self.scan.topk(point, op.k, exclude)]


def recall(served: list[int], exact: list[int]) -> float:
    return len(set(served) & set(exact)) / len(exact) if exact else 1.0
