"""The columnar fork: ``subset`` must equal ``build`` on the sub-market."""

import numpy as np
import pytest

from repro.core.columnar import ColumnarInstance
from repro.shard.plan import RegionShardPlan, partition_round
from repro.workload.bidgen import MarketConfig, generate_round

pytestmark = pytest.mark.shard

ARRAY_FIELDS = (
    "demand",
    "prices",
    "seller_ids",
    "bid_indices",
    "seller_rows",
    "sellers",
    "cover",
    "cover_indptr",
    "cover_cols",
    "seller_table",
    "seller_cov",
    "initial_utilities",
    "initial_suppliers",
)


def market(seed=4):
    return generate_round(
        MarketConfig(n_sellers=12, n_buyers=8, bids_per_seller=2),
        np.random.default_rng(seed),
    )


def plan(n_buyers=8, shards=2):
    return RegionShardPlan(
        regions={b: f"r{b % shards}" for b in range(n_buyers)},
        n_shards=shards,
    )


def assert_equivalent(view, rebuilt):
    assert view.bids == rebuilt.bids
    assert view.demand_map == rebuilt.demand_map
    assert view.buyers == rebuilt.buyers
    assert view.row_of == rebuilt.row_of
    # The seller/index/cover columns below carry the bid structure; the
    # demand map must also agree in buyer order, which ``==`` ignores.
    assert list(view.demand_map.items()) == list(rebuilt.demand_map.items())
    for name in ARRAY_FIELDS:
        np.testing.assert_array_equal(
            getattr(view, name), getattr(rebuilt, name), err_msg=name
        )


class TestSubsetEqualsBuild:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_shard_views_match_fresh_builds(self, seed):
        instance = market(seed)
        partition = partition_round(instance, plan())
        parent = ColumnarInstance.build(instance.bids, instance.demand)
        for shard in partition.active_shards:
            demand = partition.shard_demand[shard]
            view = parent.subset(
                partition.local_rows[shard], list(demand)
            )
            rebuilt = ColumnarInstance.build(
                partition.local_bids[shard], demand
            )
            assert_equivalent(view, rebuilt)

    def test_full_slice_is_the_identity(self):
        instance = market()
        parent = ColumnarInstance.build(instance.bids, instance.demand)
        view = parent.subset(
            range(len(instance.bids)), list(instance.demand)
        )
        assert_equivalent(view, parent)

    def test_empty_row_slice(self):
        instance = market()
        parent = ColumnarInstance.build(instance.bids, instance.demand)
        buyers = list(instance.demand)[:2]
        view = parent.subset([], buyers)
        rebuilt = ColumnarInstance.build(
            [], {b: instance.demand[b] for b in buyers}
        )
        assert_equivalent(view, rebuilt)


class TestSubsetValidation:
    def test_rows_must_be_ascending(self):
        instance = market()
        parent = ColumnarInstance.build(instance.bids, instance.demand)
        with pytest.raises(ValueError):
            parent.subset([2, 1], list(instance.demand))

    def test_unknown_buyer_rejected(self):
        instance = market()
        parent = ColumnarInstance.build(instance.bids, instance.demand)
        with pytest.raises(ValueError):
            parent.subset([0], [10_000])
