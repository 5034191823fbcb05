"""Batch execution of top-k queries.

Executes a batch of top-k :class:`~repro.query.spec.QuerySpec` objects
against one engine with two optimisations a single-query loop does not
get:

- **deduplication** — repeated queries (common in recommendation
  serving) are answered once and fanned out; specs are hashable, so the
  spec itself is the dedup key;
- **locality ordering** — executed queries are processed in S2
  query-point order (sorted along the first projected coordinate), so
  consecutive queries tend to touch the same already-cracked region of
  the index. This is the batch analogue of the paper's locality argument
  for the node-splitting cost model ("based on the principle of locality
  in database queries, this optimization has a lasting benefit").

Results are returned in the input order regardless of execution order.
Aggregate-shaped specs are rejected up front with a
:class:`~repro.errors.ServiceError` — batching is a top-k optimisation
(dedup + locality), and silently skipping non-topk work would corrupt
the positional result list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError, ServiceError
from repro.query.spec import QuerySpec
from repro.query.topk import TopKResult


@dataclass
class BatchReport:
    """Outcome of a batch run."""

    results: list[TopKResult]
    unique_executed: int
    total_queries: int
    points_examined: int

    @property
    def dedup_ratio(self) -> float:
        if self.total_queries == 0:
            return 1.0
        return self.unique_executed / self.total_queries


def _check(spec) -> QuerySpec:
    """Reject batch items that are not top-k specs."""
    if not isinstance(spec, QuerySpec):
        raise QueryError(f"batch items must be QuerySpec, got {type(spec)!r}")
    if spec.mode != "topk":
        raise ServiceError(
            "run_batch executes top-k specs only; route aggregate "
            "specs through QueryService.execute / QueryEngine.execute"
        )
    return spec


def run_batch(engine, specs: list[QuerySpec]) -> BatchReport:
    """Execute top-k ``specs`` against ``engine`` and return a report.

    Raises :class:`~repro.errors.QueryError` on an item that is not a
    :class:`QuerySpec` and :class:`~repro.errors.ServiceError` on
    aggregate-shaped specs; entity/relation validation happens per query
    inside the engine.
    """
    specs = [_check(spec) for spec in specs]
    unique = list(dict.fromkeys(specs))  # preserves first-seen order

    # Locality ordering: sort the queries to execute by their projected
    # query point's first coordinate (cheap, stable, and effective
    # because S2 is the space the index partitions). The projected key is
    # computed once per unique query.
    projected = {
        spec: float(engine.transform(engine.resolve(spec).point)[0]) for spec in unique
    }
    answers: dict[QuerySpec, TopKResult] = {}
    points = 0
    for spec in sorted(unique, key=projected.__getitem__):
        result = engine.execute(spec).topk
        answers[spec] = result
        points += result.points_examined
    return BatchReport(
        results=[answers[s] for s in specs],
        unique_executed=len(unique),
        total_queries=len(specs),
        points_examined=points,
    )
