"""Unit tests for the sharded online auctioneer (MSOA over shards)."""

import numpy as np
import pytest

from repro.core.columnar import ColumnarInstance
from repro.core.msoa import run_msoa
from repro.core.outcomes import ScaledBids
from repro.errors import ConfigurationError
from repro.shard import (
    ShardedOnlineAuction,
    make_plan,
    run_sharded_msoa,
)
from repro.shard.plan import partition_round
from repro.shard.ssam import run_sharded_ssam
from repro.shard.streaming import (
    StreamConfig,
    region_plan,
    stream_capacities,
    stream_rounds,
)
from repro.workload.bidgen import MarketConfig, generate_horizon, generate_round

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


class TestColumnarRound:
    """A sharded MSOA round on the columnar engine reads the round's
    bids from its layout's columns."""

    @staticmethod
    def _rounds(monkeypatch, count=6, plan=None, stream=STREAM):
        import repro.shard.msoa as shard_msoa

        results = []

        def recorded(*args, **kwargs):
            results.append(run_sharded_ssam(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(shard_msoa, "run_sharded_ssam", recorded)
        auction = ShardedOnlineAuction(
            stream_capacities(stream),
            plan=region_plan(stream) if plan is None else plan,
            engine="columnar",
        )
        for instance in list(stream_rounds(stream, np.random.default_rng(5)))[
            :count
        ]:
            auction.process_round(instance)
        return results

    def test_builds_bids_only_for_winners_and_cross_bids(self, monkeypatch):
        checked = 0
        for result in self._rounds(monkeypatch):
            if result.stats.clamped_shards or result.stats.fast_path:
                continue  # a clamped shard re-clears from its bids
            scaled = result.outcome.instance.bids
            assert isinstance(scaled, ScaledBids)
            built = {bid.key for bid in scaled._built.values()}
            expected = {w.bid.key for w in result.outcome.winners} | {
                bid.key for bid in result.partition.cross_bids
            }
            assert built == expected
            assert len(built) < len(scaled)
            checked += 1
        assert checked >= 3

    def test_locality_round_builds_bids_only_for_winners_and_cross_bids(
        self, monkeypatch
    ):
        # Four regions with few cross-region bids: the co-coverage graph
        # has several components, so the plan splits the round.
        stream = StreamConfig(
            rounds=6,
            regions=4,
            buyers_per_region=5,
            sellers_per_region=15,
            cross_region_fraction=0.02,
        )
        checked = 0
        for result in self._rounds(
            monkeypatch, plan=make_plan("locality", 2), stream=stream
        ):
            if result.stats.clamped_shards:
                continue  # a clamped shard re-clears from its bids
            scaled = result.outcome.instance.bids
            assert isinstance(scaled, ScaledBids)
            built = {bid.key for bid in scaled._built.values()}
            expected = {w.bid.key for w in result.outcome.winners} | {
                bid.key for bid in result.partition.cross_bids
            }
            assert built == expected
            assert len(built) < len(scaled)
            # The plan bound from the layout's cover equals the one bound
            # by a walk over the (now all built) bid objects.
            walked = make_plan("locality", 2).for_round(result.outcome.instance)
            assert result.partition.plan.assignment == walked.assignment
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("strategy", ["hash", "region", "locality"])
    def test_partition_from_a_layout_matches_a_walk_over_the_bids(
        self, strategy
    ):
        plans = {
            "hash": make_plan("hash", 3),
            "region": region_plan(STREAM),
            "locality": make_plan("locality", 2),
        }
        instances = [
            *list(stream_rounds(STREAM, np.random.default_rng(2)))[:3],
            *(generate_round(
                MarketConfig(n_sellers=14, n_buyers=6, bids_per_seller=2),
                np.random.default_rng(seed),
            ) for seed in (1, 2, 3)),
            *_plan_cases(),
        ]
        for instance in instances:
            demand = {b: u for b, u in instance.demand.items() if u > 0}
            layout = ColumnarInstance.build(instance.bids, demand)
            plan = plans[strategy]
            got = partition_round(instance, plan, layout=layout)
            want = _walked_partition(instance, plan)
            assert got.plan == plan.for_round(instance)
            assert got.shard_demand == want["shard_demand"]
            assert [tuple(b) for b in got.local_bids] == want["local_bids"]
            assert got.local_rows == want["local_rows"]
            assert got.cross_bids == want["cross_bids"]
            assert got.cross_rows == want["cross_rows"]
            assert got.price_ceiling == want["price_ceiling"]


def _plan_cases():
    """The markets ``tests/shard/test_plan.py`` partitions: local and
    cross bids, zero-demand cover, a seller-coupled pair, inert bids."""
    from repro.core.bids import Bid
    from repro.core.wsp import WSPInstance

    def bid(seller, covered, price=10.0, index=0):
        return Bid(
            seller=seller, index=index, covered=frozenset(covered), price=price
        )

    return [
        WSPInstance.from_bids(
            [bid(100, {0, 1}), bid(101, {2}), bid(102, {1, 2}), bid(103, {3})],
            {0: 1, 1: 1, 2: 1, 3: 1},
            price_ceiling=50.0,
        ),
        WSPInstance.from_bids(
            [bid(100, {1, 2}), bid(101, {1})], {1: 1, 2: 0}, price_ceiling=50.0
        ),
        WSPInstance.from_bids(
            [bid(100, {0}, index=0), bid(100, {2}, index=1), bid(101, {0}),
             bid(102, {2})],
            {0: 1, 2: 1},
            price_ceiling=50.0,
        ),
        WSPInstance.from_bids(
            [bid(100, {0}), bid(101, {2, 3})], {0: 1, 2: 0, 3: 0},
            price_ceiling=50.0,
        ),
        WSPInstance.from_bids(
            [bid(100, {0}, price=30.0), bid(101, {2}, price=20.0)], {0: 1, 2: 1}
        ),
    ]


def _walked_partition(instance, plan):
    """The partition by a walk over the bid objects: each bid's shards
    from its positively demanded cover, inert bids parked on the shard
    of their smallest buyer, seller-coupled live bids to
    reconciliation."""
    plan = plan.for_round(instance)
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    shard_of = {b: plan.shard_of(b) for b in demand}
    shard_demand = [{} for _ in range(plan.n_shards)]
    for buyer, units in demand.items():
        shard_demand[shard_of[buyer]][buyer] = units
    assigned, inert, seller_shards = [], [], {}
    for bid in instance.bids:
        touched = {shard_of[b] for b in bid.covered if b in shard_of}
        inert.append(not touched)
        if len(touched) > 1:
            assigned.append(None)
        elif touched:
            assigned.append(touched.pop())
            seller_shards.setdefault(bid.seller, set()).add(assigned[-1])
        else:
            assigned.append(plan.shard_of(min(bid.covered)))
    coupled = {s for s, shards in seller_shards.items() if len(shards) > 1}
    local_bids = [[] for _ in range(plan.n_shards)]
    local_rows = [[] for _ in range(plan.n_shards)]
    cross_bids, cross_rows = [], []
    for row, (bid, shard, idle) in enumerate(
        zip(instance.bids, assigned, inert)
    ):
        if shard is None or (not idle and bid.seller in coupled):
            cross_bids.append(bid)
            cross_rows.append(row)
        else:
            local_bids[shard].append(bid)
            local_rows[shard].append(row)
    return {
        "shard_demand": tuple(shard_demand),
        "local_bids": [tuple(bids) for bids in local_bids],
        "local_rows": tuple(map(tuple, local_rows)),
        "cross_bids": tuple(cross_bids),
        "cross_rows": tuple(cross_rows),
        "price_ceiling": (
            instance.price_ceiling
            if instance.price_ceiling is not None
            else instance.effective_ceiling
        ),
    }
