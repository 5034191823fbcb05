"""One exact answer at the default epsilon, whichever mode computes it.

``QueryEngine.exhaustive(spec)`` is the reference every execution mode
is measured against. At the engine default ``epsilon=0.5`` (where the
indexed modes may differ from it, Theorem 2) the exact answer itself
must not depend on the mode: one tree, a 2-shard hash engine, the
degradation ladder's forced linear rung and the vectorised
``ExhaustiveScan`` fed the same resolved query all return element-wise
identical answers, for typed and head-direction specs too.
"""

from repro.bench.workloads import make_workload
from repro.errors import IndexError_
from repro.index.linear import ExhaustiveScan
from repro.resilience.chaos import ChaosController, activate
from repro.resilience.degrade import DegradationLadder

EPSILON = 0.5


def _specs(graph, n=120, seed=31):
    specs = []
    for position, query in enumerate(make_workload(graph, n, seed=seed, skew=0.0)):
        k = 1 + position % 12
        if position % 3 == 0:  # every third spec is typed
            kind = "movie" if query.direction == "tail" else "user"
            specs.append(query.spec(k, entity_type=kind))
        else:
            specs.append(query.spec(k))
    return specs


def _linear_rung(engine):
    """A ladder holding ``engine`` on its linear rung (level 2)."""
    ladder = DegradationLadder(auto_rebuild=False)
    controller = ChaosController(seed=0)
    controller.on("engine.topk", exc=IndexError_, max_fires=2)
    probe = _specs(engine.graph, n=2)
    with activate(controller):
        for spec in probe:  # each fired fault drops one rung
            ladder.run_topk(engine, spec)
    assert ladder.level_of(engine) == 2
    return ladder


def test_exact_answer_is_mode_independent_at_default_epsilon(
    dataset, make_engine, make_sharded
):
    graph, _ = dataset
    single = make_engine(epsilon=EPSILON)
    sharded = make_sharded(shards=2, scheme="hash", epsilon=EPSILON)
    degraded = make_engine(epsilon=EPSILON)
    ladder = _linear_rung(degraded)
    scan = ExhaustiveScan(single.s1_vectors, vectorized=True)
    every_id = set(range(len(single.s1_vectors)))

    specs = _specs(graph)
    assert any(spec.direction == "head" for spec in specs)
    assert any(spec.entity_type is not None for spec in specs)
    for spec in specs:
        want = single.exhaustive(spec)
        assert len(want) == spec.k
        assert sharded.exhaustive(spec) == want
        rung, splits = ladder.run_topk(degraded, spec)
        assert splits is None
        assert rung == want

        query = single.resolve(spec)
        exclude = set(query.exclude)
        if query.allowed is not None:
            exclude |= every_id - query.allowed
        pairs = scan.topk(query.point, spec.k, exclude)
        assert tuple(e for e, _ in pairs) == want.entities
        assert tuple(d for _, d in pairs) == want.distances
