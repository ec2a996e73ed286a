"""Unit tests for the sharded online auctioneer (MSOA over shards)."""

import numpy as np
import pytest

from repro.core.msoa import run_msoa
from repro.errors import ConfigurationError
from repro.shard import (
    ShardedOnlineAuction,
    make_plan,
    run_sharded_msoa,
)
from repro.shard.streaming import (
    StreamConfig,
    region_plan,
    stream_capacities,
    stream_rounds,
)
from repro.workload.bidgen import MarketConfig, generate_horizon

pytestmark = pytest.mark.shard

STREAM = StreamConfig(
    rounds=4,
    regions=2,
    buyers_per_region=5,
    sellers_per_region=15,
    cross_region_fraction=0.1,
)


def horizon(seed=11, rounds=4):
    return generate_horizon(
        MarketConfig(n_sellers=10, n_buyers=4, bids_per_seller=2),
        np.random.default_rng(seed),
        rounds=rounds,
    )


class TestConstruction:
    def test_plan_and_shards_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            ShardedOnlineAuction(
                {1: 5}, plan=make_plan("hash", 2), shards=2
            )

    def test_defaults_to_single_hash_shard(self):
        auction = ShardedOnlineAuction({1: 5})
        assert auction.plan.n_shards == 1

    def test_msoa_options_forwarded(self):
        with pytest.raises(ConfigurationError):
            ShardedOnlineAuction({1: 5}, shards=2, on_infeasible="explode")


class TestShardedHorizon:
    def test_capacity_safety_and_feasibility(self):
        rounds, capacities = horizon()
        outcome = run_sharded_msoa(
            rounds, capacities, shards=3, on_infeasible="best_effort"
        )
        outcome.verify_capacities()
        for round_result in outcome.rounds:
            round_result.outcome.verify()

    def test_psi_monotone_nondecreasing(self):
        rounds, capacities = horizon()
        outcome = run_sharded_msoa(
            rounds, capacities, shards=3, on_infeasible="best_effort"
        )
        previous = {seller: 0.0 for seller in capacities}
        for round_result in outcome.rounds:
            for seller, psi in round_result.psi_after.items():
                assert psi >= previous.get(seller, 0.0) - 1e-12
            previous = dict(round_result.psi_after)

    def test_streamed_region_sharded_horizon(self):
        outcome = run_sharded_msoa(
            stream_rounds(STREAM, np.random.default_rng(7)),
            stream_capacities(STREAM),
            plan=region_plan(STREAM),
            engine="columnar",
            on_infeasible="best_effort",
        )
        assert len(outcome.rounds) == STREAM.rounds
        assert any(r.outcome.winners for r in outcome.rounds)

    def test_shard_stats_track_each_clearing(self):
        rounds, capacities = horizon(rounds=3)
        auction = ShardedOnlineAuction(capacities, shards=2)
        for instance in rounds:
            auction.process_round(instance)
        assert len(auction.shard_stats) == 3
        assert all(s.n_shards == 2 for s in auction.shard_stats)

    def test_engines_agree_on_sharded_horizon(self):
        rounds, capacities = horizon()
        outcomes = {
            engine: run_sharded_msoa(
                rounds,
                capacities,
                shards=3,
                engine=engine,
                on_infeasible="best_effort",
            ).to_dict()
            for engine in ("reference", "columnar")
        }
        assert outcomes["columnar"] == outcomes["reference"]

    def test_faulted_sharded_horizon_completes(self):
        from repro.faults import FaultPlan, SellerDefault

        rounds, capacities = horizon()
        plan = FaultPlan(
            seed=3,
            seller_defaults=(
                SellerDefault(
                    scripted=((1, next(iter(capacities))),)
                ),
            ),
        )
        outcome = run_sharded_msoa(
            rounds,
            capacities,
            shards=2,
            faults=plan,
            on_infeasible="best_effort",
        )
        assert len(outcome.rounds) == len(rounds)


class TestStreamingMemoryMode:
    def test_retain_rounds_false_keeps_state_but_not_history(self):
        rounds, capacities = horizon(rounds=3)
        streaming = ShardedOnlineAuction(
            capacities, shards=2, retain_rounds=False,
            on_infeasible="best_effort",
        )
        retained = ShardedOnlineAuction(
            capacities, shards=2, on_infeasible="best_effort"
        )
        for instance in rounds:
            lean = streaming.process_round(instance)
            full = retained.process_round(instance)
            assert lean.outcome.to_dict() == full.outcome.to_dict()
        assert streaming.rounds == ()
        assert streaming.round_count == 3
        assert retained.round_count == 3
        assert len(retained.rounds) == 3
        # ψ/χ state is identical: history retention is orthogonal.
        assert streaming.psi == retained.psi
        assert streaming.capacity_used == retained.capacity_used

    def test_round_index_advances_without_retention(self):
        rounds, capacities = horizon(rounds=3)
        auction = ShardedOnlineAuction(
            capacities, shards=1, retain_rounds=False,
            on_infeasible="best_effort",
        )
        indices = [auction.process_round(r).round_index for r in rounds]
        assert indices == [0, 1, 2]


class TestUnshardedBaselineConsistency:
    def test_sharded_run_matches_unsharded_round_count_and_bound(self):
        rounds, capacities = horizon()
        sharded = run_sharded_msoa(
            rounds, capacities, shards=2, on_infeasible="best_effort"
        )
        plain = run_msoa(rounds, capacities, on_infeasible="best_effort")
        assert len(sharded.rounds) == len(plain.rounds)
        assert sharded.alpha == plain.alpha
