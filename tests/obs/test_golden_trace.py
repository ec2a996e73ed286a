"""Golden-trace regression tests.

Seeded SSAM, MSOA and sharded MSOA runs are traced and the trace is held to the
schema contract: versioned header, strictly increasing sequence numbers,
properly nested spans, monotone round indices — and, the load-bearing
property, :func:`repro.obs.summarize` reconstructs the run's social cost
*bit-for-bit* from the trace alone, for both selection engines.  Tracing
must also never perturb the auction itself: a traced run's winners and
payments equal the untraced run's exactly.
"""

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.msoa import run_msoa
from repro.core.ssam import PaymentRule, run_ssam
from repro.core.wsp import WSPInstance
from repro.obs import observing, read_trace, summarize
from repro.obs.tracer import TRACE_SCHEMA, TRACE_SCHEMA_VERSION, iter_spans
from repro.shard.msoa import ShardedOnlineAuction
from repro.shard.plan import RegionShardPlan
from repro.shard.ssam import run_sharded_ssam
from repro.shard.streaming import (
    StreamConfig,
    region_plan,
    stream_capacities,
    stream_rounds,
)
from repro.workload.bidgen import generate_horizon

ENGINES = ("columnar", "reference")


def _trace_ssam(tmp_path, instance, engine, **options):
    path = tmp_path / f"ssam-{engine}.jsonl"
    with observing(trace=path):
        outcome = run_ssam(instance, engine=engine, **options)
    return path, outcome


class TestTraceSchema:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_header_is_versioned(self, tmp_path, make_instance, engine):
        path, _ = _trace_ssam(tmp_path, make_instance(seed=7), engine)
        header = read_trace(path)[0]
        assert header["schema"] == TRACE_SCHEMA
        assert header["version"] == TRACE_SCHEMA_VERSION
        assert summarize(path).schema_version == TRACE_SCHEMA_VERSION

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequence_is_strictly_monotone(
        self, tmp_path, make_instance, engine
    ):
        path, _ = _trace_ssam(tmp_path, make_instance(seed=7), engine)
        seqs = [r["seq"] for r in read_trace(path) if "seq" in r]
        assert all(a < b for a, b in zip(seqs, seqs[1:]))

    def test_auction_phases_are_nested_spans(self, tmp_path, make_instance):
        path, _ = _trace_ssam(tmp_path, make_instance(seed=7), "columnar")
        starts = {s["name"]: s for s in iter_spans(read_trace(path))}
        auction = starts["auction"]
        assert auction["parent"] == 0
        assert starts["greedy-selection"]["parent"] == auction["id"]
        assert starts["payment-computation"]["parent"] == auction["id"]

    def test_trace_is_complete_not_truncated(self, tmp_path, make_instance):
        path, _ = _trace_ssam(tmp_path, make_instance(seed=7), "columnar")
        assert summarize(path).truncated is False


class TestGoldenSsam:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", (7, 23))
    def test_summarize_reconstructs_social_cost_bit_for_bit(
        self, tmp_path, make_instance, engine, seed
    ):
        instance = make_instance(seed=seed)
        path, outcome = _trace_ssam(tmp_path, instance, engine)
        summary = summarize(path)
        assert summary.social_cost == outcome.social_cost  # bit-for-bit
        assert summary.total_payment == outcome.total_payment

    @pytest.mark.parametrize("engine", ENGINES)
    def test_summarize_reconstructs_coverage(
        self, tmp_path, make_instance, engine
    ):
        instance = make_instance(seed=7)
        path, outcome = _trace_ssam(tmp_path, instance, engine)
        auction = summarize(path).auctions[0]
        assert auction.coverage == outcome.coverage
        assert auction.satisfied == outcome.satisfied
        assert auction.demand == {
            b: u for b, u in instance.demand.items() if u > 0
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_winner_events_match_outcome_order(
        self, tmp_path, make_instance, engine
    ):
        path, outcome = _trace_ssam(tmp_path, make_instance(seed=7), engine)
        auction = summarize(path).auctions[0]
        assert [
            (w["seller"], w["index"]) for w in auction.winners
        ] == [w.bid.key for w in outcome.winners]
        assert [w["payment"] for w in auction.winners] == [
            w.payment for w in outcome.winners
        ]

    def test_runner_up_rule_traces_identically(self, tmp_path, make_instance):
        path, outcome = _trace_ssam(
            tmp_path,
            make_instance(seed=7),
            "columnar",
            payment_rule=PaymentRule.ITERATION_RUNNER_UP,
        )
        summary = summarize(path)
        assert summary.social_cost == outcome.social_cost
        assert summary.total_payment == outcome.total_payment

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tracing_never_changes_the_outcome(
        self, tmp_path, make_instance, engine
    ):
        instance = make_instance(seed=7)
        untraced = run_ssam(instance, engine=engine)
        _, traced = _trace_ssam(tmp_path, instance, engine)
        assert [w.bid.key for w in traced.winners] == [
            w.bid.key for w in untraced.winners
        ]
        assert [w.payment for w in traced.winners] == [
            w.payment for w in untraced.winners
        ]
        assert traced.social_cost == untraced.social_cost


class TestGoldenMsoa:
    @pytest.fixture
    def horizon(self, make_rng, make_market):
        return generate_horizon(make_market(), make_rng(11), rounds=4)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_summarize_reconstructs_online_social_cost(
        self, tmp_path, horizon, engine
    ):
        rounds, capacities = horizon
        path = tmp_path / "msoa.jsonl"
        with observing(trace=path):
            outcome = run_msoa(
                rounds, capacities, engine=engine, on_infeasible="best_effort"
            )
        summary = summarize(path)
        assert summary.social_cost == outcome.social_cost  # bit-for-bit
        assert summary.total_payment == outcome.total_payment
        assert [r.social_cost for r in summary.rounds] == [
            r.social_cost for r in outcome.rounds
        ]

    def test_round_indices_are_monotone(self, tmp_path, horizon):
        rounds, capacities = horizon
        path = tmp_path / "msoa.jsonl"
        with observing(trace=path):
            run_msoa(rounds, capacities, on_infeasible="best_effort")
        indices = [r.round_index for r in summarize(path).rounds]
        assert indices == list(range(len(rounds)))

    def test_msoa_events_present(self, tmp_path, horizon):
        rounds, capacities = horizon
        path = tmp_path / "msoa.jsonl"
        with observing(trace=path):
            run_msoa(rounds, capacities, on_infeasible="best_effort")
        names = {
            r["name"] for r in read_trace(path) if r["kind"] == "event"
        }
        assert "price-scaling" in names
        assert "psi-update" in names

    def test_tracing_never_changes_online_outcome(self, tmp_path, horizon):
        rounds, capacities = horizon
        untraced = run_msoa(rounds, capacities, on_infeasible="best_effort")
        with observing(trace=tmp_path / "msoa.jsonl"):
            traced = run_msoa(rounds, capacities, on_infeasible="best_effort")
        assert traced.social_cost == untraced.social_cost
        assert traced.total_payment == untraced.total_payment
        for t_round, u_round in zip(traced.rounds, untraced.rounds):
            assert [w.bid.key for w in t_round.outcome.winners] == [
                w.bid.key for w in u_round.outcome.winners
            ]


def _clamped_round():
    """Shard "b" (buyers 2–3) clamps: buyer 3 needs two units but only
    seller 200 covers it locally, so seller 300's cross bid serves the
    rest.  Shard "a" clears normally.  The prices make a left fold over
    the winners depend on their order."""
    bids = [
        Bid(seller=100, index=0, covered=frozenset({0}), price=0.1),
        Bid(seller=101, index=0, covered=frozenset({1}), price=0.1),
        Bid(seller=200, index=0, covered=frozenset({2, 3}), price=0.4),
        Bid(seller=201, index=0, covered=frozenset({2}), price=0.3),
        Bid(seller=300, index=0, covered=frozenset({1, 3}), price=0.1),
    ]
    return WSPInstance.from_bids(
        bids, {0: 1, 1: 1, 2: 1, 3: 2}, price_ceiling=50.0
    )


class TestGoldenSharded:
    """A sharded round's auctions are parts of one ``sharded-auction``
    span; the summary joins them into the round's merged auction."""

    @staticmethod
    def _check_rounds(path, results):
        summary = summarize(path)
        assert [r.social_cost for r in summary.rounds] == [
            r.social_cost for r in results
        ]  # bit-for-bit
        assert [r.total_payment for r in summary.rounds] == [
            r.total_payment for r in results
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_summary_of_a_sharded_stream_is_the_outcome(
        self, tmp_path, engine
    ):
        config = StreamConfig(
            rounds=3, regions=3, buyers_per_region=6, sellers_per_region=18
        )
        auction = ShardedOnlineAuction(
            stream_capacities(config), plan=region_plan(config), engine=engine
        )
        rounds = stream_rounds(config, np.random.default_rng(3))
        path = tmp_path / "sharded.jsonl"
        with observing(trace=path):
            results = [auction.process_round(r) for r in rounds]
        assert all(s.active_shards == 3 for s in auction.shard_stats)
        self._check_rounds(path, results)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_summary_of_a_round_with_a_clamped_shard(self, tmp_path, engine):
        instance = _clamped_round()
        plan = RegionShardPlan(
            regions={0: "a", 1: "a", 2: "b", 3: "b"}, n_shards=2
        )
        auction = ShardedOnlineAuction(
            {bid.seller: 10 for bid in instance.bids}, plan=plan, engine=engine
        )
        path = tmp_path / "clamped.jsonl"
        with observing(trace=path):
            results = [auction.process_round(instance) for _ in range(2)]
        assert [s.clamped_shards for s in auction.shard_stats] == [1, 1]
        winners = results[0].outcome.winners
        assert [w.bid.seller for w in winners] == [100, 101, 200, 300]
        prices = [w.original_price for w in winners]
        assert sum(prices) != sum(prices[2:3] + prices[:2] + prices[3:])
        self._check_rounds(path, results)

    def test_standalone_sharded_round_is_one_auction(self, tmp_path):
        plan = RegionShardPlan(
            regions={0: "a", 1: "a", 2: "b", 3: "b"}, n_shards=2
        )
        path = tmp_path / "standalone.jsonl"
        with observing(trace=path):
            result = run_sharded_ssam(_clamped_round(), plan)
        (auction,) = summarize(path).auctions
        assert auction.social_cost == result.outcome.social_cost
        assert auction.total_payment == result.outcome.total_payment
        assert auction.coverage == result.outcome.coverage
