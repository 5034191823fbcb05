"""Sharded scatter-gather execution (``repro.shard``).

Partitions the S2 point store into N independent cracking R-trees and
runs queries scatter-gather across a shard executor: each shard answers
the query over its id subset, and an exact k-way merge reassembles the
global answer. The merged top-k equals what one tree over all points
returns whenever both equal the exhaustive answer (always at
``epsilon=1.0`` on the test datasets); below that, each shard examines
its own region and the two can differ (see :mod:`repro.shard.merge`).
"""

from repro.shard.engine import ShardedEngine
from repro.shard.executor import ShardExecutor
from repro.shard.merge import merge_topk
from repro.shard.plan import ShardPlan

__all__ = ["ShardPlan", "ShardExecutor", "ShardedEngine", "merge_topk"]
