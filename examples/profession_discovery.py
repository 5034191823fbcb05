"""Entity discovery on a Freebase-like heterogeneous knowledge graph.

The paper's running Freebase example: "given a tail entity corresponding
to the name 'Rapper' and a relationship type '/people/person/profession',
we search for top-k head entities not in the training data". This script
reproduces that query shape on the synthetic Freebase-like dataset: pick
a profession, find the people most likely to hold it that the graph does
not know about — and verify the predictions against the generator's
hidden ground truth (latent affinity).

It also contrasts the three index build strategies (greedy cracking,
2-choice and 4-choice A*) on the same query sequence.

Run with:  python examples/profession_discovery.py
"""

import time

import numpy as np

from repro.embedding.pretrained import PretrainedEmbedding
from repro.kg.generators import freebase_like
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec


def main() -> None:
    graph, world = freebase_like(
        num_entities=2500, num_relations=24, num_edges=10000
    )
    print(f"Built {graph}")
    model = PretrainedEmbedding.from_world(graph, world, dim=50, seed=0)

    profession_rel = graph.relations.id_of("/people/person/profession")
    professions = world.members("profession")
    target = professions[0]
    target_name = graph.entities.name_of(target)

    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=0.5), model=model
    )

    print(f"\nTop-8 predicted holders of profession {target_name!r} "
          "(not in the training data):")
    result = engine.execute(
        QuerySpec(entity=target, relation=profession_rel, direction="head", k=8)
    ).topk
    for entity, prob in zip(result.entities, engine.probabilities(result)):
        affinity = world.affinity(entity, target)
        print(
            f"  {graph.entities.name_of(entity):18s} p={prob:.3f}  "
            f"ground-truth affinity={affinity:+.2f}"
        )

    # Sanity: predicted holders should have higher latent affinity with
    # the profession than random people do.
    rng = np.random.default_rng(0)
    people = world.members("person")
    random_affinity = np.mean(
        [world.affinity(int(rng.choice(people)), target) for _ in range(200)]
    )
    predicted_affinity = np.mean(
        [world.affinity(e, target) for e in result.entities]
    )
    print(
        f"\nmean affinity: predicted={predicted_affinity:+.2f} "
        f"vs random people={random_affinity:+.2f}"
    )

    # Compare the index build strategies on a shared query stream.
    print("\nBuild-strategy comparison over 30 queries "
          "(greedy vs 2-choice vs 4-choice A*):")
    queries = [(p, profession_rel) for p in professions[:30]]
    for variant in ("cracking", "topk2", "topk4"):
        eng = QueryEngine.from_graph(
            graph, EngineConfig(index=variant, epsilon=0.5), model=model
        )
        start = time.perf_counter()
        for entity, relation in queries:
            eng.execute(QuerySpec(entity=entity, relation=relation, direction="head", k=5))
        total = time.perf_counter() - start
        stats = eng.index.stats()
        print(
            f"  {variant:9s} total={total * 1000:8.1f} ms  "
            f"splits={stats.splits_performed:5d}  nodes={stats.node_count:4d}  "
            f"overlap-cost={eng.index.overlap_cost_total:8.3f}"
        )


if __name__ == "__main__":
    main()
