"""The unified query request/response surface: ``QuerySpec`` in,
``QueryResult`` out.

Every query the system can answer — top-k entity prediction and the
five aggregate kinds, in both directions, typed or not — is one
immutable :class:`QuerySpec`. A spec is hashable, so it doubles as a
dedup/cache key, and every internal call site (engine, pool, batch,
replay, HTTP) routes through :meth:`QueryEngine.execute`, which takes a
spec and returns a :class:`QueryResult`. :meth:`QueryEngine.resolve`
turns a spec into its query point, exclude set and allowed set, and
:meth:`QueryEngine.exhaustive` answers a top-k spec by the exact scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.query.aggregates import _KINDS, AggregateEstimate
from repro.query.topk import TopKResult

#: Default result size when a request does not say — the ONE place the
#: ``k`` default lives (engine, batch, and HTTP all import it).
DEFAULT_K = 10

_DIRECTIONS = ("tail", "head")
_MODES = ("topk", "aggregate")


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One predictive query, fully specified.

    Parameters
    ----------
    entity:
        The anchor entity id (the known head for ``direction='tail'``,
        the known tail for ``direction='head'``).
    relation:
        The relation id.
    direction:
        ``'tail'`` predicts ``(entity, relation, ?)``; ``'head'``
        predicts ``(?, relation, entity)``.
    mode:
        ``'topk'`` or ``'aggregate'``.
    k:
        Result size (top-k mode only).
    entity_type:
        Optional type tag restricting top-k candidates.
    epsilon:
        Optional radius-inflation override; ``None`` uses the engine's
        configured epsilon.
    agg:
        Aggregate kind (``count``/``sum``/``avg``/``max``/``min``);
        required in aggregate mode.
    attribute:
        Attribute aggregated over (required for every kind but count).
    p_tau:
        Probability threshold defining the aggregate ball.
    access_fraction / max_access:
        The paper's accuracy/time dial — bounds on record accesses.
    """

    entity: int
    relation: int
    direction: str = "tail"
    mode: str = "topk"
    k: int = DEFAULT_K
    entity_type: str | None = None
    epsilon: float | None = None
    agg: str | None = None
    attribute: str | None = None
    p_tau: float = 0.05
    access_fraction: float = 1.0
    max_access: int | None = None

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise QueryError("direction must be 'tail' or 'head'")
        if self.mode not in _MODES:
            raise QueryError("mode must be 'topk' or 'aggregate'")
        if self.mode == "topk" and self.k < 1:
            raise QueryError("k must be >= 1")
        if self.epsilon is not None and self.epsilon < 0:
            raise QueryError("epsilon must be non-negative")
        if self.mode == "aggregate":
            if self.agg is None:
                raise QueryError("aggregate mode needs an 'agg' kind")
            if self.agg.lower() not in _KINDS:
                raise QueryError(f"unknown aggregate kind {self.agg!r}")


@dataclass(frozen=True, slots=True)
class QueryResult:
    """What :meth:`QueryEngine.execute` returns: the spec that produced
    it plus exactly one populated payload matching ``spec.mode``."""

    spec: QuerySpec
    topk: TopKResult | None = None
    aggregate: AggregateEstimate | None = None

    @property
    def value(self):
        """The mode-appropriate payload."""
        return self.topk if self.spec.mode == "topk" else self.aggregate
