"""Unit tests for sharded single-round clearing and reconciliation."""

import pytest

from repro.core.bids import Bid
from repro.core.ssam import run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.shard.plan import RegionShardPlan
from repro.shard.ssam import run_sharded_ssam

pytestmark = pytest.mark.shard

PLAN = RegionShardPlan(
    regions={0: "a", 1: "a", 2: "b", 3: "b"}, n_shards=2
)


def bid(seller, covered, price=10.0, index=0):
    return Bid(
        seller=seller, index=index, covered=frozenset(covered), price=price
    )


def split_market():
    """Two disjoint per-shard markets, no cross bids."""
    bids = [
        bid(100, {0}, 10.0),
        bid(101, {0, 1}, 12.0),
        bid(102, {1}, 8.0),
        bid(200, {2}, 9.0),
        bid(201, {3}, 11.0),
        bid(202, {2, 3}, 15.0),
    ]
    return WSPInstance.from_bids(
        bids, {0: 1, 1: 1, 2: 1, 3: 1}, price_ceiling=50.0
    )


class TestFastPath:
    def test_single_shard_is_the_unsharded_call(self):
        instance = WSPInstance.from_bids(
            [bid(100, {0}), bid(101, {0, 1}), bid(102, {1})],
            {0: 1, 1: 1},
            price_ceiling=50.0,
        )
        plan = RegionShardPlan(regions={0: "a", 1: "a"}, n_shards=2)
        result = run_sharded_ssam(instance, plan)
        assert result.stats.fast_path is True
        assert result.cross_outcome is None
        assert len(result.shard_outcomes) == 2
        assert result.shard_outcomes.count(None) == 1
        plain = run_ssam(instance)
        assert result.outcome.to_dict() == plain.to_dict()


class TestTwoShards:
    def test_merged_winners_and_duals(self):
        instance = split_market()
        result = run_sharded_ssam(instance, PLAN)
        assert result.stats.fast_path is False
        assert result.stats.cross_bids == 0
        merged = result.outcome
        # Winners are the union of the independent per-shard runs,
        # concatenated in shard order with iterations renumbered.
        assert [w.iteration for w in merged.winners] == list(
            range(len(merged.winners))
        )
        per_shard = [
            run_ssam(result.partition.sub_instance(s)) for s in (0, 1)
        ]
        expected = [
            (w.bid.key, w.payment, w.marginal_utility)
            for outcome in per_shard
            for w in outcome.winners
        ]
        assert [
            (w.bid.key, w.payment, w.marginal_utility)
            for w in merged.winners
        ] == expected
        merged.verify()  # primal feasible after the merge
        # Duals carry one unit tag per granted unit.
        granted = sum(len(v) for v in merged.duals.unit_prices.values())
        assert granted == sum(
            w.marginal_utility for w in merged.winners
        )

    def test_outcome_engine_independent(self):
        instance = split_market()
        outcomes = {
            engine: run_sharded_ssam(instance, PLAN, engine=engine)
            for engine in ("reference", "columnar")
        }
        assert (
            outcomes["columnar"].outcome.to_dict()
            == outcomes["reference"].outcome.to_dict()
        )


class TestReconciliation:
    def test_cross_bid_serves_residual_demand(self):
        # Buyer 1 (shard 0) needs 2 units but only one local seller
        # covers it; the second unit must come from the cross bid.
        bids = [
            bid(100, {0, 1}, 10.0),
            bid(101, {0}, 9.0),
            bid(300, {1, 2}, 20.0),  # cross: spans both shards
            bid(200, {2}, 8.0),
            bid(201, {3}, 11.0),
        ]
        instance = WSPInstance.from_bids(
            bids, {0: 1, 1: 2, 2: 1, 3: 1}, price_ceiling=50.0
        )
        result = run_sharded_ssam(instance, PLAN)
        assert result.stats.clamped_shards >= 1
        assert result.cross_outcome is not None
        cross_sellers = {
            w.bid.seller for w in result.cross_outcome.winners
        }
        assert cross_sellers == {300}
        result.outcome.verify()

    def test_one_win_per_seller_across_passes(self):
        # Seller 100 wins locally on shard 0 and also holds the cheapest
        # cross bid; reconciliation must exclude it (one win per seller)
        # and serve the residual through the pricier seller 300 instead.
        bids = [
            bid(100, {0}, 5.0, index=0),
            bid(100, {1, 2}, 6.0, index=1),
            bid(300, {1, 2}, 20.0),
            bid(200, {2}, 8.0),
        ]
        # Buyer 1 has no local coverage at all: shard 0 clamps it and
        # reconciliation serves it from the cross set.
        instance = WSPInstance.from_bids(
            bids, {0: 1, 1: 1, 2: 1}, price_ceiling=50.0
        )
        result = run_sharded_ssam(instance, PLAN)
        winner_sellers = [w.bid.seller for w in result.outcome.winners]
        assert len(winner_sellers) == len(set(winner_sellers))
        assert (100, 0) in {w.bid.key for w in result.outcome.winners}
        assert {
            w.bid.seller for w in result.cross_outcome.winners
        } == {300}
        result.outcome.verify()

    def test_losing_cross_bids_are_recorded(self):
        # No residual demand: cross bids all lose, but the partition
        # still records them (cross_outcome with zero winners).
        bids = [
            bid(100, {0}, 1.0),
            bid(200, {2}, 1.0),
            bid(300, {0, 2}, 40.0),
        ]
        instance = WSPInstance.from_bids(
            bids, {0: 1, 2: 1}, price_ceiling=50.0
        )
        result = run_sharded_ssam(instance, PLAN)
        assert result.cross_outcome is not None
        assert result.cross_outcome.winners == ()
        assert result.stats.cross_bids == 1
        assert result.stats.cross_winners == 0

    def test_infeasible_reconciliation_raises_by_default(self):
        # Buyer 1 is uncoverable: no local bid, no cross bid reaches it.
        bids = [bid(100, {0}), bid(200, {2})]
        instance = WSPInstance(
            bids=tuple(bids),
            demand={0: 1, 1: 1, 2: 1},
            price_ceiling=50.0,
        )
        with pytest.raises(InfeasibleInstanceError):
            run_sharded_ssam(instance, PLAN)


class TestProfiledPhases:
    @staticmethod
    def _phase_calls(instance):
        from repro.obs.runtime import STATE, _reset_for_tests, configure

        _reset_for_tests()
        try:
            configure()
            result = run_sharded_ssam(instance, PLAN)
            metrics = STATE.metrics
            calls = {
                phase: metrics.counter(f"phase.{phase}.calls").value
                for phase in (
                    "shard.round",
                    "shard.partition",
                    "ssam.selection",
                    "ssam.payments",
                    "shard.reconcile",
                )
            }
        finally:
            _reset_for_tests()
        return result, calls

    def test_partition_and_reconcile_are_profiled(self):
        # A metrics registry alone splits a sharded round into the
        # partition, the per-shard kernels and the reconciliation.
        # Buyer 1 needs 2 units but only seller 100 covers it locally:
        # shard "a" clamps and clears through clear_supply_clamped,
        # paying its winners on its own; shard "b"'s winners are paid in
        # the round's batch, and the reconciliation pays its own.
        bids = [
            bid(100, {0, 1}, 10.0),
            bid(101, {0}, 9.0),
            bid(300, {1, 2}, 20.0),  # cross: spans both shards
            bid(200, {2}, 8.0),
            bid(201, {3}, 11.0),
        ]
        instance = WSPInstance.from_bids(
            bids, {0: 1, 1: 2, 2: 1, 3: 1}, price_ceiling=50.0
        )
        result, calls = self._phase_calls(instance)
        assert result.stats.clamped_shards == 1
        del calls["ssam.selection"]  # shard "a" also escalates its guard
        assert calls == {
            "shard.round": 1,
            "shard.partition": 1,
            "ssam.payments": 3,
            "shard.reconcile": 1,
        }

    def test_unclamped_shards_share_one_payment_batch(self):
        result, calls = self._phase_calls(split_market())
        assert result.stats.clamped_shards == 0
        assert result.cross_outcome is None
        # The shards select in lockstep (one selection call) and share
        # one payment batch.
        assert (calls["ssam.selection"], calls["ssam.payments"]) == (1, 1)
