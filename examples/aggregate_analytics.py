"""Aggregate (statistical) queries over a virtual knowledge graph.

The paper's Section V-B queries on the Amazon-like dataset: expected
COUNT of products a user would like, AVG of the products' ``quality``
attribute, MAX/MIN — each estimated from a prefix of the probability
ball (the accessed sample) and accompanied by the Theorem 4 martingale
tail bound. The script sweeps the sample size to show the accuracy/time
tradeoff of Figures 12-14.

Run with:  python examples/aggregate_analytics.py
"""

from repro.embedding.pretrained import PretrainedEmbedding
from repro.kg.generators import amazon_like
from repro.query.engine import EngineConfig, QueryEngine
from repro.query.spec import QuerySpec


def main() -> None:
    graph, world = amazon_like(
        num_users=800, num_products=1600, num_ratings=9000, num_coview_edges=2500
    )
    print(f"Built {graph}")
    model = PretrainedEmbedding.from_world(graph, world, dim=50, seed=0)
    engine = QueryEngine.from_graph(
        graph, EngineConfig(index="cracking", epsilon=0.5), model=model
    )

    likes = graph.relations.id_of("likes")
    user = graph.entities.id_of("user:25")

    print("\nAll aggregate kinds for user:25's predicted 'likes' "
          "(p_tau = 0.25, full access):")
    for kind, attribute in [
        ("count", None),
        ("sum", "quality"),
        ("avg", "quality"),
        ("max", "quality"),
        ("min", "quality"),
    ]:
        estimate = engine.execute(
            QuerySpec(
                entity=user, relation=likes, mode="aggregate", agg=kind, attribute=attribute,
                p_tau=0.25, access_fraction=1.0,
            )
        ).aggregate
        label = f"{kind.upper()}({attribute})" if attribute else "COUNT(*)"
        print(
            f"  {label:14s} = {estimate.value:9.3f}   "
            f"[{estimate.accessed}/{estimate.ball_size} entities accessed]"
        )

    print("\nAccuracy/time tradeoff for AVG(quality) "
          "(reference: full access):")
    reference = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="avg", attribute="quality",
            p_tau=0.25, access_fraction=1.0,
        )
    ).aggregate.value
    print(f"  reference value: {reference:.4f}")
    for fraction in (0.05, 0.1, 0.2, 0.4, 0.7, 1.0):
        estimate = engine.execute(
            QuerySpec(
                entity=user, relation=likes, mode="aggregate", agg="avg", attribute="quality",
                p_tau=0.25, access_fraction=fraction,
            )
        ).aggregate
        err = abs(estimate.value - reference) / abs(reference)
        print(
            f"  access {fraction:4.0%} ({estimate.accessed:4d} records): "
            f"value={estimate.value:8.4f}  relative error={err:.4f}"
        )

    print("\nTheorem 4 tail bound for a sampled SUM(quality) estimate:")
    estimate = engine.execute(
        QuerySpec(
            entity=user, relation=likes, mode="aggregate", agg="sum", attribute="quality",
            p_tau=0.25, access_fraction=0.3,
        )
    ).aggregate
    print(f"  estimate = {estimate.value:.2f} "
          f"({estimate.accessed}/{estimate.ball_size} accessed)")
    for delta in (0.05, 0.1, 0.2, 0.5):
        print(
            f"  P[|truth - estimate| >= {delta:4.0%} * estimate] <= "
            f"{estimate.tail_bound(delta):.4f}"
        )


if __name__ == "__main__":
    main()
