"""In-memory spans around the serving stack's layers, installed from outside.

:func:`install` replaces methods on the live *instances* of one server
(service, pool, ladder, engine, index trees, aggregate processor,
updater, shard executor) with timing wrappers; no class and no module of
``repro`` is changed, and the index is wrapped method by method so the
ladder's rebuild step and the invariant checks still see the real tree.
``repro.obs`` tracing stays off.

A span is ``(id, parent_id, name, start, end, attrs)`` on the
``perf_counter`` clock. The parent is the span open in the calling
context; work handed to another thread keeps its parent because the pool
wrapper runs the task inside the submitter's context and the shard
wrapper looks its scatter up by spec. Spans are appended to
``Recorder.spans`` while ``Recorder.active`` is set and are only
serialized when the benchmark asks for its report.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from time import perf_counter

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_span", default=0)


class Recorder:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self._next_id = itertools.count(1).__next__

    @contextmanager
    def span(self, name: str, attrs: dict | None = None, parent: int | None = None):
        """Record ``name`` around a block; a no-op while inactive."""
        if not self.active:
            yield
            return
        sid = self._next_id()
        parent = _CURRENT.get() if parent is None else parent
        token = _CURRENT.set(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, parent, name, start, end, attrs))

    def wrap(self, obj, attr: str, name: str, note=None, parent_of=None) -> None:
        """Replace ``obj.attr`` by a wrapper recording a ``name`` span.

        ``note(args, result)`` returns the span's attributes;
        ``parent_of(args)`` overrides the parent span id.
        """
        inner = getattr(obj, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return inner(*args, **kwargs)
            sid = recorder._next_id()
            parent = _CURRENT.get() if parent_of is None else parent_of(args)
            token = _CURRENT.set(sid)
            attrs = None
            start = perf_counter()
            try:
                result = inner(*args, **kwargs)
                if note is not None:
                    attrs = note(args, result)
                return result
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                recorder.spans.append((sid, parent, name, start, end, attrs))

        setattr(obj, attr, wrapper)


def _wrap_pool(recorder: Recorder, pool) -> None:
    """``pool.execute`` on the caller's side, ``pool.run`` on the worker,
    whose ``wait`` attribute is the queue wait (submit to engine held)."""
    inner = pool.execute

    def execute(fn, timeout=None):
        if not recorder.active:
            return inner(fn, timeout)
        with recorder.span("pool.execute"):
            submitted = perf_counter()
            context = contextvars.copy_context()

            def run(engine):
                return context.run(_timed_task, recorder, fn, engine, submitted)

            return inner(run, timeout)

    pool.execute = execute


def _timed_task(recorder: Recorder, fn, engine, submitted: float):
    start = perf_counter()
    with recorder.span("pool.run", {"wait": start - submitted}):
        return fn(engine)


def _topk_note(args, result):
    return {"examined": int(result.points_examined), "returned": len(result)}


def _wrap_tree(recorder: Recorder, tree, ops=("probe", "search", "refine")) -> None:
    for op in ops:
        recorder.wrap(tree, op, f"index.{op}")


def install(recorder: Recorder, service, updater=None) -> None:
    """Install every layer wrapper on one live service."""
    engine = service.engine
    recorder.wrap(
        service, "execute", "service.execute",
        note=lambda args, result: {"mode": args[0].mode, "cached": result.cached},
    )
    _wrap_pool(recorder, service.pool)
    recorder.wrap(service.ladder, "run_topk", "ladder.run_topk")
    recorder.wrap(service.ladder, "run_aggregate", "ladder.run_aggregate")
    recorder.wrap(engine, "explain", "engine.explain")
    recorder.wrap(engine, "execute", "engine.execute")
    recorder.wrap(engine, "_run_topk_spec", "engine.topk", note=_topk_note)
    recorder.wrap(
        engine._aggregates, "estimate", "agg.estimate",
        note=lambda args, result: {
            "ball_size": int(result.ball_size), "accessed": int(result.accessed),
        },
    )
    if getattr(engine, "is_sharded", False):
        _install_shards(recorder, engine)
    else:
        _wrap_tree(
            recorder, engine.index,
            ("probe", "search", "refine", "stats", "contour", "insert", "delete"),
        )
    if updater is not None:
        recorder.wrap(
            updater, "set_entity_vector", "updater.set_vector",
            note=lambda args, result: {"reindexed": len(result.entities_reindexed)},
        )


def _install_shards(recorder: Recorder, engine) -> None:
    """Scatter on the pool worker, one ``shard.task`` per lane, and the
    per-shard trees below it. A lane finds its parent scatter through
    the spec object both lanes receive."""
    executor = engine._executor
    scatters: dict[int, int] = {}
    inner_scatter = executor.scatter_specs

    def scatter_specs(spec):
        if not recorder.active:
            return inner_scatter(spec)
        with recorder.span("shard.scatter"):
            scatters[id(spec)] = _CURRENT.get()
            try:
                return inner_scatter(spec)
            finally:
                scatters.pop(id(spec), None)

    executor.scatter_specs = scatter_specs
    recorder.wrap(engine.index, "stats", "index.stats")
    for shard_engine in engine._shard_engines:
        recorder.wrap(
            shard_engine, "_run_topk_spec", "shard.task", note=_topk_note,
            parent_of=lambda args: scatters.get(id(args[0]), 0),
        )
        _wrap_tree(recorder, shard_engine.index)
