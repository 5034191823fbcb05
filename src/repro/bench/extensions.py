"""Extension experiments beyond the paper's figures.

- **Algorithm 3 vs best-first kNN** — the paper's region-refinement
  query algorithm against the classic Hjaltason–Samet incremental NN
  (with S1 re-ranking), on the same cracking index.
- **Workload skew** — the paper argues cracking wins because the query
  space is skewed; this sweep quantifies it.
- **Dynamic updates** — throughput and post-update accuracy of the
  future-work extension (OnlineUpdater).
- **Embedding quality** — TransE vs TransH vs TransA link prediction on
  a held-out split, motivating TransE as the default algorithm ``A``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.bench.datasets import BenchDataset, freebase_dataset, movie_dataset
from repro.bench.methods import NoIndexMethod, RTreeMethod
from repro.bench.metrics import precision_at_k
from repro.bench.reporting import print_table
from repro.bench.workloads import make_workload
from repro.index.knn import knn_topk_s1
from repro.query.spec import QuerySpec


# --------------------------------------------------------------------------
# Algorithm 3 vs best-first kNN
# --------------------------------------------------------------------------


@dataclass
class KnnComparisonRow:
    method: str
    precision: float
    mean_seconds: float
    mean_points_examined: float


def run_knn_vs_alg3(
    dataset: BenchDataset | None = None,
    scale: float = 1.0,
    k: int = 5,
    num_queries: int = 60,
    seed: int = 6,
) -> list[KnnComparisonRow]:
    """Same index, two query algorithms, plus oversampling levels."""
    dataset = dataset or movie_dataset(scale)
    workload = make_workload(dataset.graph, num_queries, seed=seed)
    truth_method = NoIndexMethod(dataset)
    truths = [truth_method.query(q, k) for q in workload]

    rows: list[KnnComparisonRow] = []

    # Algorithm 3 on a cracking index.
    method = RTreeMethod(dataset, "cracking")
    durations, precisions, examined = [], [], []
    for query, truth in zip(workload, truths):
        start = time.perf_counter()
        result = method.engine.execute(query.spec(k)).topk
        durations.append(time.perf_counter() - start)
        precisions.append(precision_at_k(truth, result.entities))
        examined.append(result.points_examined)
    rows.append(
        KnnComparisonRow(
            "alg3 (eps=0.5)",
            float(np.mean(precisions)),
            float(np.mean(durations)),
            float(np.mean(examined)),
        )
    )

    # Best-first kNN with S1 re-ranking, at several oversampling levels.
    # Runs on a fully bulk-loaded tree — kNN's best case, since it never
    # cracks the index itself.
    for oversample in (2, 4, 8):
        method = RTreeMethod(dataset, "bulk")
        engine = method.engine
        durations, precisions, examined = [], [], []
        for query, truth in zip(workload, truths):
            q1, exclude, _, _ = engine.resolve(query.spec(k))
            engine.index.counters.reset()
            start = time.perf_counter()
            result = knn_topk_s1(
                engine.index, engine.s1_vectors, engine.transform, q1, k,
                exclude=exclude, oversample=oversample,
            )
            durations.append(time.perf_counter() - start)
            precisions.append(precision_at_k(truth, [e for e, _ in result]))
            examined.append(engine.index.counters.points_examined)
        rows.append(
            KnnComparisonRow(
                f"knn x{oversample}",
                float(np.mean(precisions)),
                float(np.mean(durations)),
                float(np.mean(examined)),
            )
        )
    print_table(
        "Extension: Algorithm 3 vs best-first kNN (movie-like)",
        ["method", "precision@K", "mean time(s)", "mean points examined"],
        [
            [r.method, r.precision, r.mean_seconds, r.mean_points_examined]
            for r in rows
        ],
    )
    return rows


# --------------------------------------------------------------------------
# Workload skew
# --------------------------------------------------------------------------


@dataclass
class SkewRow:
    distinct_queries: int
    crack_nodes: int
    crack_bytes: int
    bulk_nodes: int
    warm_avg_seconds: float


def run_workload_skew(
    scale: float = 1.0,
    k: int = 5,
    total_queries: int = 96,
    seed: int = 7,
) -> list[SkewRow]:
    """Cracked index size as a function of workload diversity.

    The paper's justification for cracking is that "the space of queried
    embedding vectors is skewed, and is much smaller than that of all
    data points". This sweep fixes the total query count and varies how
    many *distinct* queries it contains (cycling a sampled subset): the
    narrower the workload, the smaller the fraction of the bulk-loaded
    index the cracking tree ever materialises.
    """
    dataset = freebase_dataset(scale)
    bulk_nodes = RTreeMethod(
        dataset, "bulk", leaf_capacity=8, fanout=4
    ).index.stats().node_count
    rows: list[SkewRow] = []
    for distinct in (2, 8, 32, total_queries):
        base = make_workload(dataset.graph, distinct, seed=seed)
        workload = [base[i % distinct] for i in range(total_queries)]
        method = RTreeMethod(dataset, "cracking", leaf_capacity=8, fanout=4)
        durations = []
        for query in workload:
            start = time.perf_counter()
            method.query(query, k)
            durations.append(time.perf_counter() - start)
        stats = method.index.stats()
        rows.append(
            SkewRow(
                distinct_queries=distinct,
                crack_nodes=stats.node_count,
                crack_bytes=stats.byte_size,
                bulk_nodes=bulk_nodes,
                warm_avg_seconds=float(np.mean(durations[total_queries // 2 :])),
            )
        )
    print_table(
        "Extension: workload diversity vs cracked index size (freebase-like)",
        ["distinct queries", "crack nodes", "crack bytes", "bulk nodes", "warm avg(s)"],
        [
            [
                r.distinct_queries,
                r.crack_nodes,
                r.crack_bytes,
                r.bulk_nodes,
                r.warm_avg_seconds,
            ]
            for r in rows
        ],
    )
    return rows


# --------------------------------------------------------------------------
# Dynamic updates
# --------------------------------------------------------------------------


@dataclass
class DynamicRow:
    phase: str
    updates_per_second: float
    precision_after: float


def run_dynamic_updates(
    scale: float = 0.5,
    num_updates: int = 40,
    seed: int = 8,
) -> list[DynamicRow]:
    """Update throughput and post-update query accuracy."""
    from repro.dynamic.updater import OnlineUpdater
    from repro.embedding.trainer import TrainConfig, train_model
    from repro.kg.generators import movielens_like
    from repro.query.engine import EngineConfig, QueryEngine

    graph, _ = movielens_like(
        num_users=int(300 * scale) + 50,
        num_movies=int(700 * scale) + 100,
        num_ratings=int(7000 * scale) + 500,
        seed=seed,
    )
    model = train_model(graph, TrainConfig(dim=24, epochs=15, seed=0)).model
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=1.0), model=model
    )
    updater = OnlineUpdater(engine, local_epochs=4, seed=seed)
    likes = graph.relations.id_of("likes")
    probes = [graph.entities.id_of(f"user:{i}") for i in range(10)]

    def precision() -> float:
        scores = []
        for user in probes:
            spec = QuerySpec(entity=user, relation=likes, k=5)
            truth = engine.exhaustive(spec).entities
            got = engine.execute(spec).topk.entities
            scores.append(precision_at_k(truth, got))
        return float(np.mean(scores))

    rows = [DynamicRow("before updates", 0.0, precision())]
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    applied = 0
    while applied < num_updates:
        user = int(rng.choice(probes))
        movie = graph.entities.id_of(f"movie:{int(rng.integers(0, 100))}")
        if graph.has_triple(user, likes, movie):
            continue
        updater.add_edge(user, likes, movie)
        applied += 1
    elapsed = time.perf_counter() - start
    rows.append(
        DynamicRow("after edge burst", num_updates / elapsed, precision())
    )
    print_table(
        "Extension: dynamic updates (movie-like)",
        ["phase", "updates/s", "precision@5 after"],
        [[r.phase, r.updates_per_second, r.precision_after] for r in rows],
    )
    return rows


# --------------------------------------------------------------------------
# Embedding quality
# --------------------------------------------------------------------------


@dataclass
class EmbeddingRow:
    model: str
    mean_rank: float
    hits_at_10: float
    train_seconds: float


def run_embedding_quality(
    scale: float = 0.4,
    epochs: int = 25,
    seed: int = 9,
) -> list[EmbeddingRow]:
    """TransE vs TransH vs TransA link prediction on a held-out split."""
    from repro.embedding.evaluation import evaluate_ranking
    from repro.embedding.trainer import TrainConfig, train_model
    from repro.kg.generators import movielens_like
    from repro.kg.sampling import split_triples

    graph, _ = movielens_like(
        num_users=int(300 * scale) + 50,
        num_movies=int(700 * scale) + 100,
        num_ratings=int(7000 * scale) + 500,
        seed=seed,
    )
    train, test = split_triples(graph, test_fraction=0.05, seed=seed)
    masked = graph.subgraph_without(test)
    train_array = masked.triple_array()
    rows: list[EmbeddingRow] = []
    for name in ("transe", "transa", "transh"):
        config = TrainConfig(
            dim=24,
            epochs=epochs if name != "transh" else max(4, epochs // 5),
            model=name,
            seed=0,
        )
        start = time.perf_counter()
        result = train_model(masked, config, triples=train_array)
        train_seconds = time.perf_counter() - start
        report = evaluate_ranking(result.model, masked, test, max_triples=40)
        rows.append(
            EmbeddingRow(name, report.mean_rank, report.hits_at_10, train_seconds)
        )
    print_table(
        "Extension: embedding quality (movie-like, held-out edges)",
        ["model", "mean rank", "hits@10", "train(s)"],
        [[r.model, r.mean_rank, r.hits_at_10, r.train_seconds] for r in rows],
    )
    return rows


EXTENSION_RUNNERS = {
    "knn_vs_alg3": run_knn_vs_alg3,
    "workload_skew": run_workload_skew,
    "dynamic_updates": run_dynamic_updates,
    "embedding_quality": run_embedding_quality,
}
