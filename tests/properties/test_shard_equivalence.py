"""Cross-shard equivalence certification for the sharded MSOA.

The contract ``docs/scaling.md`` documents, stated as properties:

* **1-shard identity** — a sharded auctioneer with one shard (or one
  *active* shard) is bit-identical to the unsharded MSOA: same winners,
  same payments, same duals, same ψ trajectory, for every engine and
  under seeded fault plans.  This is structural (the single-shard fast
  path calls the plain clearing on the original instance), and these
  sweeps certify the structure never regresses.
* **shard decomposition** — when no bid spans shards, the merged
  sharded outcome is exactly the union of independent per-shard runs,
  concatenated in shard order.
* **invariants under sharding** — whatever the shard count, capacity
  safety and per-round primal feasibility still hold.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.msoa import run_msoa
from repro.core.ssam import run_ssam
from repro.faults import BidDropout, FaultPlan, SellerDefault
from repro.shard import run_sharded_msoa
from repro.shard.plan import LocalityShardPlan, partition_round
from repro.shard.ssam import run_sharded_ssam
from repro.workload.bidgen import MarketConfig, generate_horizon

from tests.properties.strategies import sharded_horizons, wsp_instances

pytestmark = [pytest.mark.property, pytest.mark.slow, pytest.mark.shard]

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

ENGINES = ("reference", "columnar")

FAULTS = FaultPlan(
    seed=23,
    seller_defaults=(SellerDefault(probability=0.2),),
    bid_dropouts=(BidDropout(probability=0.15),),
)


@COMMON
@given(data=sharded_horizons())
@pytest.mark.parametrize("engine", ENGINES)
def test_one_shard_is_bit_identical_to_unsharded(data, engine):
    """shards=1 ≡ run_msoa, bitwise, on every engine."""
    rounds, capacities, _ = data
    sharded = run_sharded_msoa(
        rounds,
        capacities,
        shards=1,
        engine=engine,
        on_infeasible="best_effort",
    )
    plain = run_msoa(
        rounds, capacities, engine=engine, on_infeasible="best_effort"
    )
    assert sharded.to_dict() == plain.to_dict()


@COMMON
@given(data=sharded_horizons())
def test_one_shard_identity_survives_fault_injection(data):
    """Seeded faults hit both runs identically: identity still bitwise."""
    rounds, capacities, _ = data
    sharded = run_sharded_msoa(
        rounds,
        capacities,
        shards=1,
        faults=FAULTS,
        on_infeasible="best_effort",
    )
    plain = run_msoa(
        rounds, capacities, faults=FAULTS, on_infeasible="best_effort"
    )
    assert sharded.to_dict() == plain.to_dict()


@COMMON
@given(instance=wsp_instances(), n_shards=st.integers(1, 4))
def test_no_cross_sharding_is_union_of_per_shard_runs(instance, n_shards):
    """Locality plans cut along co-coverage seams: zero cross bids, and
    the merged outcome is the per-shard union in shard order."""
    plan = LocalityShardPlan(n_shards=n_shards)
    partition = partition_round(instance, plan)
    if partition.cross_bids:
        return  # locality plans never produce these; guard regardless
    result = run_sharded_ssam(instance, plan)
    expected = []
    for shard in partition.active_shards:
        sub = partition.sub_instance(shard)
        outcome = run_ssam(sub)
        expected.extend(
            (w.bid.key, w.payment, w.marginal_utility)
            for w in outcome.winners
        )
    assert [
        (w.bid.key, w.payment, w.marginal_utility)
        for w in result.outcome.winners
    ] == expected


@COMMON
@given(data=sharded_horizons())
def test_sharded_runs_keep_msoa_invariants(data):
    """Capacity safety + primal feasibility hold for any shard count."""
    rounds, capacities, n_shards = data
    outcome = run_sharded_msoa(
        rounds, capacities, shards=n_shards, on_infeasible="best_effort"
    )
    outcome.verify_capacities()
    for round_result in outcome.rounds:
        round_result.outcome.verify()


SWEEP_CONFIG = MarketConfig(n_sellers=8, n_buyers=4, bids_per_seller=2)


@pytest.mark.parametrize("engine", ENGINES)
def test_hundred_seed_generator_sweep(engine):
    """100 seeded markets from the workload generator: 1-shard identity
    holds on every one (the statistical tier behind the hypothesis
    draws — denser, generator-shaped instances)."""
    for seed in range(100):
        rounds, capacities = generate_horizon(
            SWEEP_CONFIG, np.random.default_rng(seed), rounds=3
        )
        sharded = run_sharded_msoa(
            rounds,
            capacities,
            shards=1,
            engine=engine,
            on_infeasible="best_effort",
        )
        plain = run_msoa(
            rounds, capacities, engine=engine, on_infeasible="best_effort"
        )
        assert sharded.to_dict() == plain.to_dict(), f"seed {seed}"
