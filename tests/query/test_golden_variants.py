"""Golden answers of every index variant and query family along one
seeded, crack-evolving sequence.

``test_golden_topk`` pins the greedy cracking tree's top-k answers. This
module pins what the other variants and query families compute over the
same 300 top-k specs: the A* tree (``topk3``, Algorithm 2) and the
bulk-loaded tree answer the top-k specs, the cracking and A* trees also
with small pages (``-n8``), and on every variant each
third spec is followed by an aggregate spec and each tenth by a
threshold (``predict_ball``) query on the same anchor, so both query
families crack the tree the later queries run against. Aggregates are
digested by value, ``accessed``, ``ball_size`` and the accessed values;
threshold answers by their ``(entity, probability)`` pairs.

To re-record after an *intended* answer change, run from the repository
root::

    PYTHONPATH=src python -m tests.query.test_golden_variants
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec
from tests.query.test_golden_topk import EPSILONS, digest, make_specs

#: Variant name -> ``EngineConfig`` fields. The ``-n8`` variants use
#: 8-point leaves and fanout 4, so the small dataset cracks several
#: levels deep.
VARIANTS = {
    "cracking": {"index": "cracking"},
    "topk3": {"index": "topk3"},
    "bulk": {"index": "bulk"},
    "cracking-n8": {"index": "cracking", "leaf_capacity": 8, "fanout": 4},
    "topk3-n8": {"index": "topk3", "leaf_capacity": 8, "fanout": 4},
}
AGG_KINDS = ("count", "sum", "avg", "max", "min")
GOLDEN_PATH = Path(__file__).parent / "golden_variants.json"


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def aggregate_digest(estimate) -> str:
    parts = [
        float(estimate.value).hex(),
        str(estimate.accessed),
        str(estimate.ball_size),
        _hex(estimate.accessed_values),
        float(estimate.max_unaccessed_bound).hex(),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def ball_digest(pairs) -> str:
    text = ";".join(f"{e}:{float(p).hex()}" for e, p in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_sequence(graph, model, variant: str, epsilon: float) -> dict:
    engine = QueryEngine.from_graph(
        graph, EngineConfig(epsilon=epsilon, **VARIANTS[variant]), model=model
    )
    rng = np.random.default_rng(2021)
    answers = []
    for position, spec in enumerate(make_specs(graph)):
        result = engine.execute(spec).topk
        answers.append(f"t{result.points_examined}/{digest(result)}")
        if position % 3 == 2:
            kind = AGG_KINDS[(position // 3) % len(AGG_KINDS)]
            estimate = engine.execute(
                QuerySpec(
                    entity=spec.entity,
                    relation=spec.relation,
                    direction=spec.direction,
                    mode="aggregate",
                    agg=kind,
                    attribute=None if kind == "count" else "year",
                    p_tau=float(rng.choice((0.05, 0.1, 0.2))),
                    access_fraction=(1.0, 0.5)[position % 2],
                )
            ).aggregate
            answers.append(
                f"a{estimate.accessed}/{estimate.ball_size}/{aggregate_digest(estimate)}"
            )
        if position % 10 == 9 and spec.direction == "tail":
            pairs = engine.predict_ball(spec.entity, spec.relation, p_tau=0.2)
            answers.append(f"b{len(pairs)}/{ball_digest(pairs)}")
    return {
        "splits_performed": int(engine.index.splits_performed),
        "answers": answers,
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_answers_match_golden(dataset, model, variant, epsilon):
    graph, _ = dataset
    want = json.loads(GOLDEN_PATH.read_text())[variant][str(epsilon)]
    got = run_sequence(graph, model, variant, epsilon)
    for position, (g, w) in enumerate(zip(got["answers"], want["answers"])):
        if g != w:
            pytest.fail(
                f"{variant} eps={epsilon}: answer #{position} diverged "
                f"(got {g}, golden {w})"
            )
    assert len(got["answers"]) == len(want["answers"])
    assert got["splits_performed"] == want["splits_performed"]


def _record() -> None:
    """Re-record the golden file from the current code."""
    from repro.embedding.pretrained import PretrainedEmbedding
    from repro.kg.generators import movielens_like

    graph, world = movielens_like(
        num_users=120, num_movies=260, num_genres=8, num_tags=24,
        num_ratings=2400, seed=5,
    )
    model = PretrainedEmbedding.from_world(graph, world, dim=32, seed=0)
    golden = {
        variant: {
            str(epsilon): run_sequence(graph, model, variant, epsilon)
            for epsilon in EPSILONS
        }
        for variant in VARIANTS
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    _record()
