"""Seeded request streams for the three serving workloads.

A workload's record (dataset, n, epsilon, k range, mix, rates, rate
ladder) lives in ``workloads.json``; this module turns a record plus a
seed into the exact list of operations the load generator sends. The
same seed always gives the same stream, and the server receives only
these operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).with_name("workloads.json")
#: Seeds the fixed popularity order of the skewed workload's anchors.
POPULARITY_SEED = 20200420


def load_specs() -> dict:
    with SPEC_PATH.open() as handle:
        return json.load(handle)


@dataclass(frozen=True, slots=True)
class Op:
    """One request: a top-k read, an aggregate read or an S1-vector write."""

    kind: str  # 'topk' | 'aggregate' | 'write'
    entity: int
    relation: int = 0
    direction: str = "tail"
    k: int = 10
    agg: str | None = None
    attribute: str | None = None
    access_fraction: float = 1.0
    vector: tuple[float, ...] | None = None

    @property
    def path(self) -> str:
        return "/bench/write" if self.kind == "write" else "/v1/query"

    def body(self, rid: int) -> dict:
        """The JSON request body; ``rid`` ties server spans to the request."""
        if self.kind == "write":
            return {"rid": rid, "entity": self.entity, "vector": list(self.vector)}
        body = {
            "rid": rid,
            "entity": self.entity,
            "relation": self.relation,
            "direction": self.direction,
        }
        if self.kind == "topk":
            body["k"] = self.k
        else:
            body.update(mode="aggregate", agg=self.agg, access_fraction=self.access_fraction)
            if self.attribute is not None:
                body["attribute"] = self.attribute
        return body

    def read_key(self) -> tuple | None:
        """What makes two reads the same request (the cache key for top-k)."""
        if self.kind == "topk":
            return ("topk", self.entity, self.relation, self.direction, self.k)
        if self.kind == "aggregate":
            return ("aggregate", self.entity, self.relation, self.direction, self.agg)
        return None


def anchor_pools(graph) -> dict[tuple[int, str], list[int]]:
    """Distinct anchors per (relation, direction): heads that have tails
    of the relation (direction 'tail') and tails that have heads."""
    pools: dict[tuple[int, str], set[int]] = {}
    for triple in graph.triples():
        pools.setdefault((triple.relation, "tail"), set()).add(triple.head)
        pools.setdefault((triple.relation, "head"), set()).add(triple.tail)
    return {key: sorted(value) for key, value in sorted(pools.items())}


def make_stream(spec: dict, dataset, seed: int, length: int) -> list[Op]:
    """``length`` operations of the workload for ``seed``."""
    rng = np.random.default_rng(seed)
    pools = anchor_pools(dataset.graph)
    if spec["mix"]["topk"] == 1.0:
        return _distinct_topk(spec, pools, rng, length)
    return _skewed_mix(spec, dataset, pools, rng, length)


def _distinct_topk(spec: dict, pools, rng, length: int) -> list[Op]:
    """Top-k only, drawn without replacement over every (anchor, k)."""
    low, high = spec["k_range"]
    combos = [
        (entity, relation, direction, k)
        for (relation, direction), entities in pools.items()
        for entity in entities
        for k in range(low, high + 1)
    ]
    if length > len(combos):
        raise ValueError(f"workload needs {length} distinct requests, has {len(combos)}")
    picks = rng.permutation(len(combos))[:length]
    return [
        Op("topk", entity, relation, direction, k)
        for entity, relation, direction, k in (combos[i] for i in picks)
    ]


def _skewed_mix(spec: dict, dataset, pools, rng, length: int) -> list[Op]:
    """Zipf-skewed anchors; top-k, aggregates and S1-vector writes."""
    graph = dataset.graph
    vectors = dataset.model.entity_vectors()
    mix = spec["mix"]
    aggs = spec["aggregates"]
    k = spec["k_range"][0]
    skew = spec["zipf_skew"]
    keys = list(pools)
    agg_keys = [
        (graph.relations.id_of(name), "tail") for name in aggs["relations"]
    ]
    # The popularity order of each pool is part of the workload, not of the
    # seed: the same anchors are hot in every run, the seed drives the draws.
    popularity = np.random.default_rng(POPULARITY_SEED)
    orders = {key: popularity.permutation(pools[key]) for key in keys}
    weights = {}
    for key in keys:
        w = np.arange(1, len(pools[key]) + 1, dtype=np.float64) ** -skew
        weights[key] = w / w.sum()

    def zipf_anchor(key) -> int:
        return int(orders[key][rng.choice(len(orders[key]), p=weights[key])])

    ops: list[Op] = []
    for _ in range(length):
        u = rng.random()
        if u < mix["topk"]:
            relation, direction = keys[rng.integers(len(keys))]
            ops.append(Op("topk", zipf_anchor((relation, direction)), relation, direction, k))
        elif u < mix["topk"] + mix["aggregate"]:
            relation, direction = agg_keys[rng.integers(len(agg_keys))]
            kind = aggs["kinds"][rng.integers(len(aggs["kinds"]))]
            ops.append(
                Op(
                    "aggregate", zipf_anchor((relation, direction)), relation, direction,
                    agg=kind,
                    attribute=None if kind == "count" else aggs["attribute"],
                    access_fraction=aggs["access_fraction"],
                )
            )
        else:
            entity = zipf_anchor(keys[rng.integers(len(keys))])
            noise = rng.normal(0.0, spec["write_sigma"], vectors.shape[1])
            ops.append(Op("write", entity, vector=tuple((vectors[entity] + noise).tolist())))
    return ops


def repeat_share(ops: list[Op]) -> float:
    """Share of reads whose request already appeared earlier in ``ops``."""
    seen: set[tuple] = set()
    reads = repeats = 0
    for op in ops:
        key = op.read_key()
        if key is None:
            continue
        reads += 1
        repeats += key in seen
        seen.add(key)
    return repeats / reads if reads else 0.0
