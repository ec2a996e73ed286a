"""Unit tests for streamed round generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.shard.plan import RegionShardPlan, partition_round
from repro.shard.streaming import (
    StreamConfig,
    region_plan,
    stream_capacities,
    stream_rounds,
)

pytestmark = pytest.mark.shard

SMALL = StreamConfig(
    rounds=3,
    regions=2,
    buyers_per_region=5,
    sellers_per_region=15,
    cross_region_fraction=0.2,
)


class TestStreamConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            StreamConfig(demand_range=(0, 2))
        with pytest.raises(ConfigurationError):
            StreamConfig(coverage_range=(1, 99), buyers_per_region=5)
        with pytest.raises(ConfigurationError):
            StreamConfig(price_range=(10.0, 99.0), price_ceiling=50.0)
        with pytest.raises(ConfigurationError):
            StreamConfig(cross_region_fraction=1.5)
        with pytest.raises(ConfigurationError):
            StreamConfig(sellers_per_region=2, demand_range=(1, 3))

    def test_geometry(self):
        assert SMALL.n_buyers == 10
        assert SMALL.n_sellers == 30
        assert SMALL.buyer_region(0) == 0
        assert SMALL.buyer_region(7) == 1
        assert SMALL.expected_demand_units == round(3 * 10 * 2)

    def test_region_plan_maps_regions_to_shards(self):
        plan = region_plan(SMALL)
        assert isinstance(plan, RegionShardPlan)
        assert plan.n_shards == SMALL.regions
        assert plan.shard_of(0) == plan.shard_of(4)
        assert plan.shard_of(0) != plan.shard_of(5)
        folded = region_plan(SMALL, 1)
        assert folded.n_shards == 1


class TestStreamRounds:
    def test_lazy_and_seeded(self):
        rng = np.random.default_rng(3)
        stream = stream_rounds(SMALL, rng)
        first = next(stream)
        again = next(stream_rounds(SMALL, np.random.default_rng(3)))
        assert [b.key for b in first.bids] == [b.key for b in again.bids]
        assert first.demand == again.demand
        assert len(list(stream)) == SMALL.rounds - 1  # first already taken

    def test_rounds_are_locally_feasible(self):
        # Every buyer must be coverable by *non-crossing* sellers of its
        # own region, so the sharded local pass never needs to clamp.
        plan = region_plan(SMALL)
        for instance in stream_rounds(SMALL, np.random.default_rng(11)):
            partition = partition_round(instance, plan)
            for shard in partition.active_shards:
                sub = partition.sub_instance(shard)
                covering: dict[int, set[int]] = {}
                for b in sub.bids:
                    for buyer in b.covered:
                        covering.setdefault(buyer, set()).add(b.seller)
                for buyer, units in sub.demand.items():
                    assert len(covering.get(buyer, ())) >= units

    def test_cross_region_bids_exist_and_span_adjacent_regions(self):
        instance = next(stream_rounds(SMALL, np.random.default_rng(5)))
        spans = [
            {SMALL.buyer_region(b) for b in bid.covered}
            for bid in instance.bids
        ]
        assert any(len(s) > 1 for s in spans)

    def test_zero_cross_fraction_keeps_regions_disjoint(self):
        config = StreamConfig(
            rounds=2,
            regions=2,
            buyers_per_region=5,
            sellers_per_region=15,
            cross_region_fraction=0.0,
        )
        for instance in stream_rounds(config, np.random.default_rng(5)):
            for bid in instance.bids:
                regions = {config.buyer_region(b) for b in bid.covered}
                assert len(regions) == 1

    def test_capacities_cover_the_horizon(self):
        capacities = stream_capacities(SMALL)
        assert len(capacities) == SMALL.n_sellers
        per_round = SMALL.coverage_range[1] + 1
        assert all(
            units == SMALL.rounds * per_round
            for units in capacities.values()
        )
