"""The degradation ladder: cracking → bulk R-tree → linear scan.

A broken index must never take the service down: the point store is the
ground truth and the tree is disposable, so if the cracking tree raises
mid-query or fails its structural invariants, the engine transparently
drops one rung:

- **level 0 (native)** — the engine's configured index (cracking by
  default);
- **level 1 (bulk)** — a fresh bulk-loaded R-tree built from the point
  store (the store is the ground truth; the tree is disposable workload
  state);
- **level 2 (linear)** — top-k by the engine's exact scan over S1
  (:meth:`~repro.query.engine.QueryEngine.exhaustive`); aggregates
  rebuild a throwaway bulk tree per query.

Answers across rungs: the indexed rungs run Algorithm 3, which re-ranks
every candidate inside the region it examined by exact S1 distance; its
answer equals the exhaustive one only when that region covers the true
top-k, and Theorem 2 bounds the probability that it does not. The
linear rung *is* the exhaustive answer. So a downgrade keeps answers
identical whenever the indexed answer was exhaustive (on the test
datasets, always at ``epsilon=1.0``); otherwise it replaces an entity
the indexed rung returned in place of a missed true one.

Every downgrade is recorded in :class:`~repro.service.metrics.ServingMetrics`
(``degradations``) and a rebuild back to the native variant is scheduled:
after ``rebuild_after`` queries at a degraded level, the next query —
which holds the engine exclusively, since the pool serializes engines —
swaps in a fresh native index, verifies it, and resets to level 0.
Rebuilding a cracking tree is nearly free (it *starts* unexpanded; the
workload re-cracks it), which is the paper's disposability argument
turned into a repair strategy.

Sharded engines (:class:`repro.shard.ShardedEngine`) ride the same
ladder: validation checks every shard tree against its live id set, the
bulk rung installs one fresh bulk tree per shard (each swap runs on the
shard's own serialized lane), and the native rebuild goes through
``rebuild_native()``. The linear rung is shard-agnostic — it scans S1
directly.
"""

from __future__ import annotations

import threading

from repro.errors import IndexError_, ReproError
from repro.index.bulkload import BulkLoadedRTree
from repro.index.rtree_base import index_recipe
from repro.index.validation import check_invariants
from repro.obs import trace
from repro.obs.logging import get_logger
from repro.query.spec import QuerySpec
from repro.resilience import chaos

#: Human-readable rung names, indexed by level.
LEVELS = ("native", "bulk", "linear")

_log = get_logger("repro.resilience.degrade")


def validate_engine(engine) -> None:
    """Run the structural invariant checks on ``engine``'s index.

    Raises :class:`~repro.errors.IndexError_` on any violation. Cheap
    enough to run on every suspect engine before it re-enters rotation.
    A sharded engine validates every shard tree against its live id set.
    """
    if getattr(engine, "is_sharded", False):
        engine.check_shard_invariants()
        return
    check_invariants(engine.index)


class _EngineState:
    __slots__ = ("level", "queries_since_downgrade", "last_error")

    def __init__(self) -> None:
        self.level = 0
        self.queries_since_downgrade = 0
        self.last_error = ""


class DegradationLadder:
    """Per-engine degradation state plus the guarded query entry points.

    One ladder serves all replicas of a pool; engines are keyed by
    identity. The pool guarantees an engine is only ever inside one
    query at a time, so per-engine transitions need no engine-side
    locking — the ladder's own lock only protects its bookkeeping.
    """

    def __init__(
        self,
        metrics=None,
        rebuild_after: int = 64,
        auto_rebuild: bool = True,
    ) -> None:
        self.metrics = metrics
        self.rebuild_after = rebuild_after
        self.auto_rebuild = auto_rebuild
        self._lock = threading.Lock()
        self._states: dict[int, _EngineState] = {}
        self._recipes: dict[int, tuple[type, dict]] = {}

    # -- bookkeeping -------------------------------------------------------

    def _state(self, engine) -> _EngineState:
        with self._lock:
            key = id(engine)
            state = self._states.get(key)
            if state is None:
                state = self._states[key] = _EngineState()
                # A sharded engine rebuilds through its own hooks (its
                # "index" is a router, not a constructible tree).
                self._recipes[key] = (
                    None if getattr(engine, "is_sharded", False)
                    else index_recipe(engine.index)
                )
            return state

    def level_of(self, engine) -> int:
        return self._state(engine).level

    def levels(self) -> list[dict]:
        """Snapshot for ``/healthz``: one entry per registered engine."""
        with self._lock:
            return [
                {
                    "level": state.level,
                    "mode": LEVELS[state.level],
                    "last_error": state.last_error,
                }
                for state in self._states.values()
            ]

    def _increment(self, counter: str) -> None:
        if self.metrics is not None:
            self.metrics.increment(counter)

    # -- guarded queries ---------------------------------------------------

    def run_topk(self, engine, spec: QuerySpec):
        """Guarded top-k for one :class:`~repro.query.spec.QuerySpec`.

        Returns ``(result, splits_triggered)`` — the index splits the
        query caused, or None on the linear rung, which uses no index.
        """
        state = self._state(engine)
        self._maybe_rebuild(engine, state)
        if state.level < 2:
            try:
                chaos.fire("engine.topk")
                answer = engine.traced_topk(spec)
                state.queries_since_downgrade += 1
                return answer
            except Exception as exc:
                self._handle(engine, state, exc)
            if state.level < 2:  # retry once on the bulk rung
                try:
                    answer = engine.traced_topk(spec)
                    state.queries_since_downgrade += 1
                    return answer
                except Exception as exc:
                    self._handle(engine, state, exc)
        state.queries_since_downgrade += 1
        return engine.exhaustive(spec), None

    def run_aggregate(self, engine, spec: QuerySpec):
        """Guarded aggregate for one spec. The estimators need an index
        contour, so the last rung rebuilds a throwaway bulk tree instead
        of scanning."""
        state = self._state(engine)
        self._maybe_rebuild(engine, state)
        for _ in range(2):
            if state.level >= 2:
                break
            try:
                chaos.fire("engine.aggregate")
                result = engine.execute(spec).aggregate
                state.queries_since_downgrade += 1
                return result
            except Exception as exc:
                self._handle(engine, state, exc)
        # Linear rung: aggregates run against a freshly built bulk tree
        # (built from the store, which is the ground truth).
        state.queries_since_downgrade += 1
        self._install_bulk(engine)
        return engine.execute(spec).aggregate

    # -- transitions -------------------------------------------------------

    def _handle(self, engine, state: _EngineState, exc: Exception) -> None:
        """Downgrade on index failures; re-raise everything else.

        :class:`~repro.errors.IndexError_` (structural violation) and
        non-library exceptions escaping the tree trigger the ladder;
        library errors like ``QueryError`` (malformed query) or injected
        transient faults propagate untouched.
        """
        if isinstance(exc, ReproError) and not isinstance(exc, IndexError_):
            raise exc
        self._downgrade(engine, state, exc)

    def _downgrade(self, engine, state: _EngineState, exc: Exception) -> None:
        state.level = min(state.level + 1, 2)
        state.queries_since_downgrade = 0
        state.last_error = f"{type(exc).__name__}: {exc}"
        self._increment("degradations")
        sp = trace.current_span()
        if sp is not None:
            sp.add_event(
                "degrade.downgrade", level=state.level, mode=LEVELS[state.level],
                error=state.last_error,
            )
        _log.warning(
            "engine degraded", level=state.level, mode=LEVELS[state.level],
            error=state.last_error,
        )
        if state.level == 1:
            # A fresh bulk tree over the same store takes over; the
            # broken tree is simply dropped.
            self._install_bulk(engine)

    def _maybe_rebuild(self, engine, state: _EngineState) -> None:
        if (
            not self.auto_rebuild
            or state.level == 0
            or state.queries_since_downgrade < self.rebuild_after
        ):
            return
        self.rebuild(engine)

    def rebuild(self, engine) -> None:
        """Swap in a fresh native-variant index and reset to level 0.

        Must be called while the engine is exclusively held (the pool's
        checkout guarantees that on the query path; the watchdog calls it
        only on engines reclaimed from dead workers).
        """
        state = self._state(engine)
        if getattr(engine, "is_sharded", False):
            engine.rebuild_native()
            variant = engine._variant_cls.__name__
        else:
            with self._lock:
                cls, kwargs = self._recipes[id(engine)]
            fresh = cls(engine.index.store, **kwargs)
            check_invariants(fresh)
            self._swap_index(engine, fresh)
            variant = cls.__name__
        state.level = 0
        state.queries_since_downgrade = 0
        state.last_error = ""
        self._increment("index_rebuilds")
        sp = trace.current_span()
        if sp is not None:
            sp.add_event("degrade.rebuild", variant=variant)
        _log.info("index rebuilt to native variant", variant=variant)

    def repair(self, engine) -> bool:
        """Validate a suspect engine; rebuild its index if broken.

        Returns True when a repair was needed. Used by the watchdog
        before a reclaimed engine re-enters rotation.
        """
        try:
            validate_engine(engine)
            return False
        except IndexError_:
            self.rebuild(engine)
            self._increment("engines_repaired")
            return True

    @staticmethod
    def _swap_index(engine, index) -> None:
        engine.index = index
        engine._aggregates.index = index

    def _install_bulk(self, engine) -> None:
        """Drop to bulk trees: per-shard for a sharded engine (one fresh
        bulk tree per shard, swapped on each shard's own lane), one tree
        otherwise."""
        if getattr(engine, "is_sharded", False):
            engine.install_indexes(engine.fresh_indexes(BulkLoadedRTree))
        else:
            cls, kwargs = index_recipe(engine.index, BulkLoadedRTree)
            self._swap_index(engine, cls(engine.index.store, **kwargs))
