"""Sharded, streaming MSOA: geographic decomposition of the auction.

The scaling layer for ROADMAP item 3.  A :class:`ShardPlan` partitions
buyers (edge cloudlets) into shards; each round clears shard-locally,
one shard after another, and reconciles cross-shard bids in a
deterministic second pass
(:func:`run_sharded_ssam`), under the unchanged MSOA ψ/χ state machine
(:class:`ShardedOnlineAuction`).  :mod:`repro.shard.streaming` feeds the
auctioneer bounded-memory round streams at 10^6-demand-unit scale.

Equivalence contract (certified by
``tests/properties/test_shard_equivalence.py``): with one shard — or
whenever the whole market lands in a single shard — the sharded path is
bit-identical to unsharded MSOA on every engine, including under seeded
fault plans; with no cross-shard bids an N-shard run equals the union of
the independent per-shard runs.  See ``docs/scaling.md``.
"""

from repro.shard.msoa import ShardedOnlineAuction, run_sharded_msoa
from repro.shard.plan import (
    HashShardPlan,
    LocalityShardPlan,
    RegionShardPlan,
    ShardPartition,
    ShardPlan,
    make_plan,
    partition_round,
)
from repro.shard.ssam import (
    ShardedRoundOutcome,
    ShardRoundStats,
    run_sharded_ssam,
)
from repro.shard.streaming import (
    StreamConfig,
    region_plan,
    stream_capacities,
    stream_rounds,
)

__all__ = [
    "ShardPlan",
    "HashShardPlan",
    "RegionShardPlan",
    "LocalityShardPlan",
    "make_plan",
    "partition_round",
    "ShardPartition",
    "run_sharded_ssam",
    "ShardedRoundOutcome",
    "ShardRoundStats",
    "ShardedOnlineAuction",
    "run_sharded_msoa",
    "StreamConfig",
    "stream_rounds",
    "stream_capacities",
    "region_plan",
]
