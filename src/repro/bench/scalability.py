"""Scalability: the index advantage as a function of dataset size.

The paper's headline claim: "queries are over 3 orders of magnitude
faster with our index compared to no index — the larger the knowledge
graph, the greater the difference", and for H2-ALSH "our method scales
better due to our overall tree-structure index (unlike the flat buckets
of LSH) with a cost logarithmic of the data size". This runner sweeps
the dataset scale and reports the per-query time of the no-index scan,
the cracking index (warm), and H2-ALSH, plus the entities-examined
counts that drive those times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


from repro.bench.datasets import amazon_dataset
from repro.bench.methods import H2ALSHMethod, NoIndexMethod, RTreeMethod
from repro.bench.reporting import print_table
from repro.bench.workloads import make_workload


@dataclass
class ScaleRow:
    entities: int
    scan_seconds: float
    crack_seconds: float
    alsh_seconds: float
    speedup_vs_scan: float
    crack_points_examined: float
    scan_points_examined: float


def run_scalability(
    scales: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0),
    k: int = 5,
    num_queries: int = 60,
    seed: int = 5,
) -> list[ScaleRow]:
    """Sweep dataset sizes on the amazon-like dataset (the paper's
    largest) and measure steady-state per-query cost per method."""
    rows: list[ScaleRow] = []
    for scale in scales:
        dataset = amazon_dataset(scale)
        likes = dataset.graph.relations.id_of("likes")
        workload = make_workload(
            dataset.graph,
            num_queries,
            seed=seed,
            relations=[likes],
            directions=("tail",),
        )
        warm = workload[num_queries // 3 :]

        scan = NoIndexMethod(dataset)
        crack = RTreeMethod(dataset, "cracking")
        alsh = H2ALSHMethod(dataset)
        for query in workload[: num_queries // 3]:
            crack.query(query, k)  # warm the cracking index

        def timed(method) -> float:
            start = time.perf_counter()
            for query in warm:
                method.query(query, k)
            return (time.perf_counter() - start) / len(warm)

        scan.scan.counters.reset()
        scan_seconds = timed(scan)
        scan_points = scan.scan.counters.points_examined / len(warm)

        crack_points_total = 0
        start = time.perf_counter()
        for query in warm:
            result = crack.engine.execute(query.spec(k)).topk
            crack_points_total += result.points_examined
        crack_seconds = (time.perf_counter() - start) / len(warm)
        crack_points = crack_points_total / len(warm)

        alsh_seconds = timed(alsh)

        rows.append(
            ScaleRow(
                entities=dataset.graph.num_entities,
                scan_seconds=scan_seconds,
                crack_seconds=crack_seconds,
                alsh_seconds=alsh_seconds,
                speedup_vs_scan=scan_seconds / max(crack_seconds, 1e-12),
                crack_points_examined=crack_points,
                scan_points_examined=scan_points,
            )
        )
    print_table(
        "Scalability: per-query cost vs dataset size (amazon-like)",
        [
            "entities",
            "scan(s)",
            "crack(s)",
            "h2-alsh(s)",
            "speedup",
            "crack pts",
            "scan pts",
        ],
        [
            [
                r.entities,
                r.scan_seconds,
                r.crack_seconds,
                r.alsh_seconds,
                r.speedup_vs_scan,
                r.crack_points_examined,
                r.scan_points_examined,
            ]
            for r in rows
        ],
    )
    return rows
