"""Golden answers of Algorithm 3 along one seeded, crack-evolving sequence.

A fresh engine answers the same 300 top-k specs in order, so every query
runs against the crack state the previous ones left behind. Each answer
is reduced to a digest of its entities, exact float distances, final
radius, query-region bounds and ``points_examined``; the splits
performed over the whole sequence are recorded too. The sequence runs
at several epsilons on one cracking tree and on a 2-shard hash engine
with thread lanes; each mode has its own golden file because shards and
one tree legitimately differ below ``epsilon=1``.

Any change to how Algorithm 3 or the index computes its answer shows up
here as the first diverging query. To re-record after an *intended*
answer change, run from the repository root::

    PYTHONPATH=src python -m tests.query.test_golden_topk
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import make_workload
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from repro.shard import ShardedEngine

EPSILONS = (0.0, 0.2, 0.5, 1.0)
MODES = ("single", "sharded")
NUM_SPECS = 300
_GOLDEN_DIR = Path(__file__).parent


def golden_path(mode: str) -> Path:
    return _GOLDEN_DIR / f"golden_topk_{mode}.json"


def make_specs(graph) -> list[QuerySpec]:
    """300 specs over both directions and every relation; k in 1..12,
    and every fifth spec restricted to movies or users."""
    rng = np.random.default_rng(2020)
    specs = []
    for position, query in enumerate(make_workload(graph, NUM_SPECS, seed=11)):
        entity_type = None
        if position % 5 == 4:
            entity_type = ("movie", "user")[int(rng.integers(2))]
        specs.append(
            QuerySpec(
                entity=query.entity,
                relation=query.relation,
                direction=query.direction,
                k=int(rng.integers(1, 13)),
                entity_type=entity_type,
            )
        )
    return specs


def digest(result) -> str:
    """Exact fingerprint of one answer (floats by their hex form)."""
    parts = [
        ",".join(str(e) for e in result.entities),
        ",".join(float(d).hex() for d in result.distances),
        float(result.final_radius).hex(),
        str(result.points_examined),
    ]
    region = result.query_region
    if region is not None:
        parts.append(",".join(float(x).hex() for x in region.lower))
        parts.append(",".join(float(x).hex() for x in region.upper))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def run_sequence(graph, model, mode: str, epsilon: float) -> dict:
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=epsilon), model=model
    )
    if mode == "sharded":
        engine = ShardedEngine.from_engine(
            engine, shards=2, scheme="hash", backend="thread"
        )
    try:
        answers = []
        for spec in make_specs(graph):
            result = engine.execute(spec).topk
            answers.append(f"{result.points_examined}/{digest(result)}")
        return {
            "splits_performed": int(engine.index.splits_performed),
            "answers": answers,
        }
    finally:
        if mode == "sharded":
            engine.close()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_answers_match_golden(dataset, model, mode, epsilon):
    graph, _ = dataset
    want = json.loads(golden_path(mode).read_text())[str(epsilon)]
    got = run_sequence(graph, model, mode, epsilon)
    for position, (g, w) in enumerate(zip(got["answers"], want["answers"])):
        if g != w:
            pytest.fail(
                f"{mode} eps={epsilon}: query #{position} diverged "
                f"(points_examined/digest {g}, golden {w})"
            )
    assert len(got["answers"]) == len(want["answers"])
    assert got["splits_performed"] == want["splits_performed"]


def _record() -> None:
    """Re-record both golden files from the current code."""
    from repro.embedding.pretrained import PretrainedEmbedding
    from repro.kg.generators import movielens_like

    graph, world = movielens_like(
        num_users=120, num_movies=260, num_genres=8, num_tags=24,
        num_ratings=2400, seed=5,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=32, seed=0)
    for mode in MODES:
        golden = {
            str(epsilon): run_sequence(graph, model, mode, epsilon)
            for epsilon in EPSILONS
        }
        golden_path(mode).write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    _record()
