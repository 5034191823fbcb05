"""Random query workloads.

Per Section VI: "for each query we either (1) randomly choose a head
entity and a relationship and query the top-k tail entities, or (2)
randomly choose a tail entity and a relationship and query the top-k
head entities" — sampling entities that actually participate in the
chosen relation so every query is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kg.graph import KnowledgeGraph
from repro.query.spec import DEFAULT_K, QuerySpec
from repro.rng import ensure_rng


@dataclass(frozen=True, slots=True)
class Query:
    """One predictive top-k query: direction is 'tail' (given head, find
    tails) or 'head' (given tail, find heads)."""

    entity: int
    relation: int
    direction: str  # 'tail' | 'head'

    def spec(self, k: int = DEFAULT_K, **fields) -> QuerySpec:
        """This query as a :class:`QuerySpec` (top-k unless ``fields``
        say otherwise)."""
        return QuerySpec(
            entity=self.entity, relation=self.relation, direction=self.direction,
            k=k, **fields,
        )


def make_workload(
    graph: KnowledgeGraph,
    num_queries: int,
    seed: int = 0,
    relations: list[int] | None = None,
    directions: tuple[str, ...] = ("tail", "head"),
    skew: float = 0.0,
) -> list[Query]:
    """Sample ``num_queries`` random queries over ``graph``.

    ``relations`` restricts the relation types used (e.g. only ``likes``
    when comparing against single-relation H2-ALSH); by default all
    types with at least one edge are eligible.

    ``skew > 0`` concentrates the workload on a Zipf-weighted subset of
    query entities (rank^-skew over a shuffled entity order), modelling
    the paper's observation that "the space of queried embedding vectors
    is skewed and much smaller than that of all data points" — the
    regime where a cracking index shines. ``skew = 0`` is uniform.
    """
    if skew < 0:
        raise ValueError("skew must be non-negative")
    rng = ensure_rng(seed)
    heads_by_rel: dict[int, list[int]] = {}
    tails_by_rel: dict[int, list[int]] = {}
    for triple in graph.triples():
        heads_by_rel.setdefault(triple.relation, []).append(triple.head)
        tails_by_rel.setdefault(triple.relation, []).append(triple.tail)
    eligible = sorted(heads_by_rel)
    if relations is not None:
        eligible = [r for r in eligible if r in set(relations)]
    if not eligible:
        raise ValueError("no eligible relations with edges")

    def pick(pool: list[int]) -> int:
        if skew == 0.0:
            return int(pool[rng.integers(len(pool))])
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks**-skew
        weights /= weights.sum()
        return int(pool[rng.choice(len(pool), p=weights)])

    # skew == 0 samples entities edge-mass weighted (an entity with many
    # edges of the relation is queried proportionally more often — the
    # natural query traffic over a power-law graph, and the paper's
    # "randomly choose a head entity" reading). skew > 0 instead applies
    # an explicit Zipf over the distinct entities in a fixed shuffled
    # order, decoupling workload skew from edge-sampling order.
    pools: dict[tuple[int, str], list[int]] = {}
    for relation in eligible:
        for direction, source in (("tail", heads_by_rel), ("head", tails_by_rel)):
            if skew == 0.0:
                pool = list(source[relation])
            else:
                pool = sorted(set(source[relation]))
                rng.shuffle(pool)
            pools[(relation, direction)] = pool

    queries: list[Query] = []
    while len(queries) < num_queries:
        relation = int(rng.choice(eligible))
        direction = str(rng.choice(directions))
        entity = pick(pools[(relation, direction)])
        queries.append(Query(entity, relation, direction))
    return queries
