"""Dynamic knowledge-graph updates — the paper's future work, live.

A MovieLens-like virtual knowledge graph evolves while serving queries:
users rate new movies (edges added), retract ratings (edges removed),
and a brand-new user joins. Each update triggers a handful of *local*
SGD steps and a delete/re-project/insert cycle on the cracking index —
no retraining, no index rebuild — and the script verifies after every
step that the indexed answers still match the exhaustive scan.

Run with:  python examples/dynamic_updates.py
"""

import time

import numpy as np

from repro import EngineConfig, TrainConfig
from repro.bench.metrics import precision_at_k
from repro.dynamic.updater import OnlineUpdater
from repro.embedding.trainer import train_model
from repro.kg.generators import movielens_like
from repro.query.engine import QueryEngine
from repro.query.spec import QuerySpec


def check_consistency(engine, likes, users, k=5) -> float:
    precisions = []
    for user in users:
        spec = QuerySpec(entity=user, relation=likes, k=k)
        truth = engine.exhaustive(spec).entities
        got = engine.execute(spec).topk.entities
        precisions.append(precision_at_k(truth, got))
    return float(np.mean(precisions))


def main() -> None:
    graph, _ = movielens_like(
        num_users=200, num_movies=400, num_genres=10, num_tags=40, num_ratings=4000
    )
    print(f"Built {graph}")
    model = train_model(graph, TrainConfig(dim=24, epochs=20, seed=0)).model
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=1.0), model=model
    )
    updater = OnlineUpdater(engine, local_epochs=5, seed=0)
    likes = graph.relations.id_of("likes")
    probe_users = [graph.entities.id_of(f"user:{i}") for i in range(15)]

    print("\nWarming the cracking index with the probe queries...")
    base_precision = check_consistency(engine, likes, probe_users)
    print(f"precision@5 vs exhaustive before updates: {base_precision:.3f}")

    # 1. A user rates their own top recommendation (feedback loop).
    user = probe_users[0]
    top = engine.execute(QuerySpec(entity=user, relation=likes, k=1)).topk.entities[0]
    start = time.perf_counter()
    report = updater.add_edge(user, likes, top)
    elapsed = (time.perf_counter() - start) * 1000
    print(
        f"\nadd_edge(user:0 likes {graph.entities.name_of(top)}): "
        f"{elapsed:.1f} ms, {report.local_steps} local SGD steps, "
        f"{len(report.entities_reindexed)} entities re-indexed, "
        f"max vector displacement {report.max_displacement:.4f}"
    )
    assert top not in engine.execute(QuerySpec(entity=user, relation=likes, k=5)).topk.entities
    print("  -> the rated movie no longer appears among predictions (it is in E now)")

    # 2. A burst of rating edges.
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(30):
        u = graph.entities.id_of(f"user:{int(rng.integers(0, 200))}")
        m = graph.entities.id_of(f"movie:{int(rng.integers(0, 400))}")
        if not graph.has_triple(u, likes, m):
            updater.add_edge(u, likes, m)
    per_update = (time.perf_counter() - start) / 30 * 1000
    print(f"\n30 rating updates applied at {per_update:.1f} ms/update")
    print(
        "precision@5 vs exhaustive after the burst: "
        f"{check_consistency(engine, likes, probe_users):.3f}"
    )

    # 3. A retraction.
    known = sorted(graph.tails(user, likes))
    updater.remove_edge(user, likes, known[0])
    print(f"\nremove_edge: user:0 no longer likes {graph.entities.name_of(known[0])}")

    # 4. A brand-new user joins near an existing one and rates 3 movies.
    newbie = updater.add_entity("user:brand-new", near=user)
    for m in ("movie:1", "movie:2", "movie:3"):
        updater.add_edge(newbie, likes, graph.entities.id_of(m))
    recs = engine.execute(QuerySpec(entity=newbie, relation=likes, k=5)).topk
    print(
        "\nnew user's top-5 after three ratings: "
        + ", ".join(graph.entities.name_of(e) for e in recs.entities)
    )

    stats = engine.index.stats()
    print(
        f"\nIndex after all updates: {stats.node_count} nodes, "
        f"{stats.frontier_elements} frontier elements — never rebuilt."
    )


if __name__ == "__main__":
    main()
