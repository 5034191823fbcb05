"""The query engine: glue between graph, embedding, transform and index.

A :class:`QueryEngine` owns the trained embedding model, the JL
transform, the S2 point store and one spatial index variant, and answers
the two query families of the paper — top-k entity queries and aggregate
queries, in both directions (given head find tails, given tail find
heads) — through one entrypoint, :meth:`QueryEngine.execute`. Each
:class:`~repro.query.spec.QuerySpec` is resolved in one place,
:meth:`QueryEngine.resolve`, and :meth:`QueryEngine.exhaustive` answers
it by the exact scan, the no-index baseline used as ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.trainer import TrainConfig, train_model
from repro.errors import QueryError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.cracking import CrackingRTree
from repro.index.geometry import Rect, row_distances
from repro.index.linear import exact_topk
from repro.index.store import PointStore
from repro.index.topk_splits import TopKSplitsRTree
from repro.kg.graph import KnowledgeGraph
from repro.obs import trace
from repro.query.aggregates import AggregateEstimate, AggregateProcessor, without
from repro.query.probability import InverseDistanceProbability
from repro.query.spec import QueryResult, QuerySpec
from repro.query.topk import TopKResult, find_topk
from repro.transform.jl import JLTransform

#: Known index variant names accepted by :class:`EngineConfig.index`.
INDEX_VARIANTS = ("cracking", "topk2", "topk3", "topk4", "bulk")


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Configuration for building a :class:`QueryEngine` from a graph."""

    alpha: int = 3
    epsilon: float = 0.5
    index: str = "cracking"
    leaf_capacity: int = 32
    fanout: int = 8
    beta: float = 1.5
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)


class ResolvedQuery(NamedTuple):
    """A :class:`~repro.query.spec.QuerySpec` resolved against one engine."""

    point: np.ndarray  # the query point in S1 (h + r or t - r)
    exclude: frozenset[int]  # known E-neighbours plus the anchor itself
    allowed: frozenset[int] | None  # the entity-type filter, if any
    epsilon: float  # the spec's override, else the engine's


@dataclass(frozen=True, slots=True)
class QueryExplain:
    """EXPLAIN-style report for one top-k query."""

    result: TopKResult
    elapsed_seconds: float
    internal_accesses: int
    leaf_accesses: int
    partition_accesses: int
    splits_triggered: int
    points_examined: int
    scan_equivalent_points: int
    index_stats: object

    @property
    def examined_fraction(self) -> float:
        """Points examined relative to what a full scan would touch."""
        if self.scan_equivalent_points == 0:
            return 0.0
        return self.points_examined / self.scan_equivalent_points

    def summary(self) -> str:
        """A one-paragraph human-readable account of the query."""
        return (
            f"top-{len(self.result)} in {self.elapsed_seconds * 1000:.2f} ms: "
            f"examined {self.points_examined}/{self.scan_equivalent_points} "
            f"entities ({self.examined_fraction:.1%}), touched "
            f"{self.internal_accesses} internal / {self.leaf_accesses} leaf / "
            f"{self.partition_accesses} frontier elements, triggered "
            f"{self.splits_triggered} splits; index now has "
            f"{self.index_stats.node_count} nodes."
        )


class QueryEngine:
    """Predictive query processing over one graph + model + index."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        model: EmbeddingModel,
        transform: JLTransform,
        index,
        epsilon: float = 0.5,
    ) -> None:
        if not model.supports_spatial_queries:
            raise QueryError(
                "the embedding model must provide relation-independent "
                "entity points (e.g. TransE) for spatial indexing"
            )
        self.graph = graph
        self.model = model
        self.transform = transform
        self.index = index
        self.epsilon = epsilon
        self.s1_vectors = model.entity_vectors()
        self._aggregates = AggregateProcessor(
            index, self.s1_vectors, transform, graph.attributes, epsilon=epsilon
        )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: KnowledgeGraph,
        config: EngineConfig | None = None,
        model: EmbeddingModel | None = None,
    ) -> "QueryEngine":
        """Train (or reuse) an embedding, project to S2, build the index."""
        config = config or EngineConfig()
        if model is None:
            model = train_model(graph, config.train).model
        transform = JLTransform(model.dim, config.alpha, seed=config.seed)
        store = PointStore(transform(model.entity_vectors()))
        index = cls._make_index(store, config)
        return cls(graph, model, transform, index, epsilon=config.epsilon)

    @staticmethod
    def _make_index(store: PointStore, config: EngineConfig):
        kwargs = dict(
            leaf_capacity=config.leaf_capacity,
            fanout=config.fanout,
            beta=config.beta,
        )
        if config.index == "cracking":
            return CrackingRTree(store, **kwargs)
        if config.index == "bulk":
            return BulkLoadedRTree(store, **kwargs)
        if config.index.startswith("topk"):
            choices = int(config.index.removeprefix("topk"))
            return TopKSplitsRTree(store, num_choices=choices, **kwargs)
        raise QueryError(
            f"unknown index variant {config.index!r}; expected one of {INDEX_VARIANTS}"
        )

    # -- the unified entrypoint ------------------------------------------------

    def execute(self, spec: QuerySpec) -> QueryResult:
        """Run one query described by ``spec`` — the single entrypoint
        every internal call site (pool, batch, replay, HTTP) uses.

        Returns a :class:`QueryResult` whose ``topk`` or ``aggregate``
        field is populated according to ``spec.mode``.
        """
        if spec.mode == "topk":
            return QueryResult(spec=spec, topk=self._run_topk_spec(spec))
        return QueryResult(spec=spec, aggregate=self._run_aggregate_spec(spec))

    def resolve(self, spec: QuerySpec) -> ResolvedQuery:
        """Resolve ``spec`` into its S1 query point, exclude set, allowed
        set and epsilon — the one place every execution path (indexed,
        sharded, exhaustive, aggregate, batch ordering) derives them."""
        if spec.direction == "tail":
            known = self.graph.tails(spec.entity, spec.relation)
            point = self.model.tail_query_point(spec.entity, spec.relation)
        else:
            known = self.graph.heads(spec.entity, spec.relation)
            point = self.model.head_query_point(spec.entity, spec.relation)
        allowed = None
        if spec.entity_type is not None:
            allowed = self.graph.entities_of_type(spec.entity_type)
            if not allowed:
                raise QueryError(f"no entities tagged with type {spec.entity_type!r}")
        epsilon = self.epsilon if spec.epsilon is None else spec.epsilon
        return ResolvedQuery(point, known | {spec.entity}, allowed, epsilon)

    def _run_topk_spec(self, spec: QuerySpec) -> TopKResult:
        """Top-k execution hook; :class:`repro.shard.ShardedEngine`
        overrides this with the scatter-gather path."""
        query = self.resolve(spec)
        return find_topk(
            self.index,
            self.s1_vectors,
            self.transform,
            query.point,
            spec.k,
            exclude=query.exclude,
            epsilon=query.epsilon,
            allowed=query.allowed,
        )

    def exhaustive(self, spec: QuerySpec) -> TopKResult:
        """The exact top-k of a top-k spec by vectorised scan over S1.

        Entities rank by ``(distance, id)``; ``final_radius`` is the
        k-th distance inflated by the spec's epsilon, as Algorithm 3
        would set it. This is the ground truth every execution mode is
        measured against, and the degradation ladder's linear rung.
        """
        if spec.mode != "topk":
            raise QueryError("exhaustive() covers top-k specs only")
        query = self.resolve(spec)
        ids, dists = exact_topk(
            self.s1_vectors, query.point, spec.k, query.exclude, query.allowed
        )
        return TopKResult(
            entities=tuple(ids.tolist()),
            distances=tuple(dists.tolist()),
            points_examined=len(self.s1_vectors),
            final_radius=float(dists[-1]) * (1.0 + query.epsilon)
            if len(ids)
            else float("inf"),
            query_region=None,
        )

    def _run_aggregate_spec(self, spec: QuerySpec) -> AggregateEstimate:
        query = self.resolve(spec)
        return self._aggregates.estimate(
            query.point,
            spec.agg,
            attribute=spec.attribute,
            p_tau=spec.p_tau,
            access_fraction=spec.access_fraction,
            max_access=spec.max_access,
            exclude=query.exclude,
        )

    # -- threshold (ball) queries -----------------------------------------------

    def predict_ball(
        self, head: int, relation: int, p_tau: float = 0.1
    ) -> list[tuple[int, float]]:
        """All predicted tails with probability at least ``p_tau``.

        The relevant entities live in the ball of radius
        ``d_min / p_tau`` around ``h + r`` (Section V-B's probability
        model); returns ``(entity, probability)`` sorted by decreasing
        probability.
        """
        if not 0.0 < p_tau <= 1.0:
            raise QueryError("p_tau must be in (0, 1]")
        q1, exclude, _, _ = self.resolve(QuerySpec(entity=head, relation=relation))
        seed = find_topk(
            self.index, self.s1_vectors, self.transform, q1, 1,
            exclude=exclude, epsilon=self.epsilon, refine_index=False,
        )
        if not seed.entities:
            return []
        prob_model = InverseDistanceProbability(seed.distances[0])
        radius = prob_model.ball_radius(p_tau) * (1.0 + self.epsilon)
        region = Rect.ball_box(self.transform(q1), radius)
        self.index.refine(region)
        ids = without(self.index.search(region), exclude)
        if len(ids) == 0:
            return []
        dists = row_distances(self.s1_vectors, q1, ids)
        prob_model = InverseDistanceProbability(float(dists.min()))
        probs = prob_model.probabilities(dists)
        keep = probs >= p_tau
        pairs = sorted(
            zip(ids[keep].tolist(), probs[keep].tolist()),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return [(int(e), float(p)) for e, p in pairs]

    # -- EXPLAIN -----------------------------------------------------------------

    def explain(self, spec: QuerySpec) -> "QueryExplain":
        """Run a top-k spec and report what the index did for it.

        Returns a :class:`QueryExplain` with the result, wall time, the
        index access counters attributable to this query, the splits it
        triggered, and the final query region — the EXPLAIN ANALYZE of
        the virtual knowledge graph.
        """
        if spec.mode != "topk":
            raise QueryError("explain() covers top-k specs only")
        before = self.index.counters.snapshot()
        start = time.perf_counter()
        result, splits = self.traced_topk(spec)
        elapsed = time.perf_counter() - start
        after = self.index.counters
        return QueryExplain(
            result=result,
            elapsed_seconds=elapsed,
            internal_accesses=after.internal_accesses - before.internal_accesses,
            leaf_accesses=after.leaf_accesses - before.leaf_accesses,
            partition_accesses=after.partition_accesses - before.partition_accesses,
            splits_triggered=splits,
            points_examined=result.points_examined,
            scan_equivalent_points=self.graph.num_entities,
            index_stats=self.index.stats(),
        )

    def traced_topk(self, spec: QuerySpec) -> tuple[TopKResult, int]:
        """Execute a top-k spec inside an ``engine.topk`` span.

        Returns the result and the index splits it triggered (the change
        in ``splits_performed``). The span's access deltas and its
        ``contour_size`` — an ``index.stats()`` tree walk, a scatter
        round on a sharded engine — are computed only while the span
        records, so the untraced serving path never walks the tree.
        """
        with trace.span("engine.topk") as sp:
            recording = sp.is_recording
            before = self.index.counters.snapshot() if recording else None
            splits_before = self.index.splits_performed
            result = self.execute(spec).topk
            splits = self.index.splits_performed - splits_before
            if recording:
                after = self.index.counters
                stats = self.index.stats()
                sp.set_attribute("direction", spec.direction)
                sp.set_attribute(
                    "internal_accesses", after.internal_accesses - before.internal_accesses
                )
                sp.set_attribute("leaf_accesses", after.leaf_accesses - before.leaf_accesses)
                sp.set_attribute("splits_triggered", splits)
                sp.set_attribute("points_examined", result.points_examined)
                sp.set_attribute(
                    "contour_size", stats.leaf_nodes + stats.frontier_elements
                )
        return result, splits

    # -- probabilities ------------------------------------------------------

    def probabilities(self, result: TopKResult) -> tuple[float, ...]:
        """Inverse-distance probabilities of a top-k result's entities."""
        if not result.distances:
            return ()
        with trace.span("query.probability") as sp:
            model = InverseDistanceProbability(result.distances[0])
            probs = tuple(model.probability(d) for d in result.distances)
            sp.set_attribute("entities", len(probs))
        return probs
