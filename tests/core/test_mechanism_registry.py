"""Tests for the mechanism protocol and the string-keyed registry.

The registry is the dispatch surface the experiments, the CLI, and the
edge platform all share, so these tests pin down its contract: every
entry resolves to a callable of the declared kind, single-round entries
uniformly emit :class:`AuctionOutcome` tagged with their registry name,
and the economics metadata (completeness, individual rationality) holds
on random feasible instances for every registered mechanism at once.
"""

import pytest
from hypothesis import given, settings

from repro.core.mechanism import (
    Mechanism,
    OnlineMechanism,
    SingleRoundOnlineAdapter,
    outcome_from_selection,
)
from repro.core.outcomes import AuctionOutcome, OnlineOutcome
from repro.core.bids import Bid
from repro.core.registry import (
    CERTIFIABLE_PROPERTIES,
    MechanismSpec,
    get_mechanism,
    get_spec,
    list_mechanisms,
    make_online,
    mechanism_specs,
    register,
)
from repro.core.ssam import run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.experiments.storage import load_outcome, save_outcome
from repro.obs import observing, read_trace
from repro.obs.tracer import iter_spans
from tests.properties.strategies import wsp_instances

EXPECTED_NAMES = {
    "ssam",
    "ssam-reference",
    "vcg",
    "pay-as-bid",
    "posted-price",
    "random",
    "greedy-density",
    "greedy-cheapest-price",
    "greedy-largest-coverage",
    "msoa",
    "offline-milp",
    "offline-greedy",
}


class TestRegistryLookup:
    def test_all_builtins_registered(self):
        assert set(list_mechanisms()) == EXPECTED_NAMES

    def test_kind_filter_partitions_registry(self):
        singles = set(list_mechanisms("single"))
        online = set(list_mechanisms("online"))
        horizon = set(list_mechanisms("horizon"))
        assert online == {"msoa"}
        assert horizon == {"offline-milp", "offline-greedy"}
        assert singles | online | horizon == EXPECTED_NAMES
        assert not (singles & online) and not (singles & horizon)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            get_spec("nope")
        with pytest.raises(ConfigurationError, match="ssam"):
            get_mechanism("nope")

    def test_duplicate_registration_rejected(self):
        spec = get_spec("ssam")
        with pytest.raises(ConfigurationError, match="already registered"):
            register(spec)

    def test_bad_kind_rejected(self):
        bad = MechanismSpec(
            name="test-bad-kind",
            kind="sideways",
            summary="",
            paper_ref="",
            truthful=False,
            individually_rational=False,
            complete=False,
            payment_rule="",
            loader=lambda: None,
        )
        with pytest.raises(ConfigurationError, match="kind"):
            register(bad)

    def test_specs_sorted_by_name(self):
        names = [spec.name for spec in mechanism_specs()]
        assert names == sorted(names)

    def test_loaders_satisfy_mechanism_protocol(self):
        for spec in mechanism_specs("single"):
            assert isinstance(spec.loader(), Mechanism)

    def test_msoa_auctioneer_satisfies_online_protocol(self):
        auction = make_online("msoa", {1: 5})
        assert isinstance(auction, OnlineMechanism)


class TestSingleRoundDispatch:
    def test_every_single_mechanism_emits_tagged_outcome(self, make_instance):
        instance = make_instance()
        for name in list_mechanisms("single"):
            outcome = get_mechanism(name)(instance)
            assert isinstance(outcome, AuctionOutcome)
            assert outcome.mechanism == name

    def test_vcg_never_costs_more_than_ssam(self, make_instance):
        instance = make_instance()
        vcg = get_mechanism("vcg")(instance)
        ssam = get_mechanism("ssam")(instance)
        assert vcg.social_cost <= ssam.social_cost + 1e-9

    def test_reference_engine_entry_matches_fast_ssam(self, make_instance):
        instance = make_instance()
        ssam = get_mechanism("ssam")(instance)
        reference = get_mechanism("ssam-reference")(instance)
        assert reference.mechanism == "ssam-reference"
        assert reference.social_cost == pytest.approx(ssam.social_cost)
        assert reference.total_payment == pytest.approx(ssam.total_payment)

    def test_random_mechanism_is_seeded(self, make_instance):
        instance = make_instance()
        runner = get_mechanism("random")
        a = runner(instance, seed=3)
        b = runner(instance, seed=3)
        assert [w.bid.key for w in a.winners] == [w.bid.key for w in b.winners]

    def test_outcome_round_trips_with_mechanism_tag(self, tmp_path, make_instance):
        # Acceptance criterion: registry outcomes persist and reload
        # through the storage layer with the tag intact.
        instance = make_instance()
        for name in ("vcg", "ssam"):
            outcome = get_mechanism(name)(instance)
            path = tmp_path / f"{name}.json"
            save_outcome(outcome, path)
            loaded = load_outcome(path)
            assert loaded.mechanism == name
            assert loaded.social_cost == pytest.approx(outcome.social_cost)
            assert loaded.total_payment == pytest.approx(outcome.total_payment)

    def test_pre_tag_payloads_default_to_ssam(self, make_instance):
        # Files written before the mechanism tag existed must still load.
        outcome = run_ssam(make_instance())
        payload = outcome.to_dict()
        del payload["mechanism"]
        restored = AuctionOutcome.from_dict(payload)
        assert restored.mechanism == "ssam"


class TestRegistryProperties:
    @settings(max_examples=15, deadline=None)
    @given(instance=wsp_instances(max_sellers=6, max_buyers=3))
    def test_claimed_invariants_hold_on_random_instances(self, instance):
        # One sweep over every single-round mechanism: completeness and
        # individual rationality must hold wherever the spec claims them.
        # Giving up loudly (a typed InfeasibleInstanceError from a
        # heuristic guard on an adversarial multi-minded instance) is
        # allowed; a *silent* shortfall where completeness is claimed is
        # not.
        for spec in mechanism_specs("single"):
            try:
                outcome = spec.loader()(instance)
            except InfeasibleInstanceError:
                continue
            assert outcome.mechanism == spec.name
            if spec.complete:
                outcome.verify()  # feasible cover of full demand
                assert outcome.satisfied
            if spec.individually_rational:
                for winner in outcome.winners:
                    assert winner.payment >= winner.bid.price - 1e-9


class TestMakeOnline:
    def test_unknown_option_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            make_online("pay-as-bid", {1: 5}, banana=True)

    def test_horizon_benchmarks_cannot_run_online(self):
        with pytest.raises(ConfigurationError, match="horizon"):
            make_online("offline-milp", {1: 5})

    def test_single_mechanism_drives_multi_round_loop(self, make_horizon):
        horizon, capacities = make_horizon()
        adapter = make_online("pay-as-bid", capacities, on_infeasible="skip")
        assert isinstance(adapter, SingleRoundOnlineAdapter)
        assert isinstance(adapter, OnlineMechanism)
        for instance in horizon:
            result = adapter.process_round(instance)
            assert result.outcome.mechanism == "pay-as-bid"
        online = adapter.finalize()
        assert isinstance(online, OnlineOutcome)
        assert online.mechanism == "pay-as-bid"
        online.verify_capacities()

    def test_adapter_enforces_capacity_discipline(self, make_horizon):
        horizon, capacities = make_horizon()
        adapter = make_online("greedy-density", capacities, on_infeasible="skip")
        for instance in horizon:
            adapter.process_round(instance)
        used = adapter.capacity_used
        for seller, units in used.items():
            assert units <= capacities.get(seller, units)

    def test_adapter_rounds_are_observed_as_msoa_rounds(
        self, tmp_path, make_horizon
    ):
        # The adapter runs MSOA's round loop, so its rounds carry the
        # msoa.round span, phase and counters, with ψ pinned at 0.
        horizon, capacities = make_horizon()
        path = tmp_path / "adapter.jsonl"
        with observing(trace=path) as metrics:
            adapter = make_online("pay-as-bid", capacities, on_infeasible="skip")
            for instance in horizon:
                adapter.process_round(instance)
            assert metrics.counter("msoa.rounds").value == len(horizon)
            assert metrics.counter("phase.msoa.round.calls").value == len(
                horizon
            )
        records = read_trace(path)
        spans = [span["name"] for span in iter_spans(records)]
        assert spans.count("msoa.round") == len(horizon)
        events = [r for r in records if r["kind"] == "event"]
        assert {
            r["fields"]["psi_max"] for r in events if r["name"] == "price-scaling"
        } == {0.0}
        assert {
            r["fields"]["psi"] for r in events if r["name"] == "psi-update"
        } == {0.0}


class TestRegistryErrorPaths:
    def test_bad_engine_string_rejected(self, make_instance):
        instance = make_instance()
        with pytest.raises(ConfigurationError, match="engine"):
            get_mechanism("ssam")(instance, engine="bogus")

    def test_unknown_claim_rejected_at_registration(self):
        bad = MechanismSpec(
            name="test-bad-claim",
            kind="single",
            summary="",
            paper_ref="",
            truthful=False,
            individually_rational=False,
            complete=False,
            payment_rule="",
            loader=lambda: None,
            claims=frozenset({"monotonicity", "telepathy"}),
        )
        with pytest.raises(ConfigurationError, match="telepathy"):
            register(bad)

    def test_builtin_claims_are_certifiable(self):
        for spec in mechanism_specs():
            assert spec.claims <= CERTIFIABLE_PROPERTIES, spec.name

    def test_ssam_claims_every_property(self):
        # The paper's headline: SSAM is the mechanism that certifies on
        # all six axes (both engines must declare the same contract).
        assert get_spec("ssam").claims == CERTIFIABLE_PROPERTIES
        assert get_spec("ssam-reference").claims == CERTIFIABLE_PROPERTIES

    def test_pay_as_bid_does_not_claim_truthfulness(self):
        # Pay-as-bid is the paper's non-truthful strawman (Fig. 3(b));
        # claiming truthfulness for it would defeat the conformance gate.
        assert "truthfulness" not in get_spec("pay-as-bid").claims


class TestAdapterCapacityExhaustion:
    """χ accounting when sellers' long-run capacities run dry.

    Two sellers, one buyer with unit demand, unit-size bids, capacity 1
    each: the first two rounds each consume one seller; by round three
    the capacity screen excludes every bid and the round is infeasible.
    """

    def exhausted_setup(self, on_infeasible):
        bids = [
            Bid(seller=101, index=0, covered=frozenset({1}), price=5.0),
            Bid(seller=102, index=0, covered=frozenset({1}), price=6.0),
        ]
        instance = WSPInstance.from_bids(bids, {1: 1}, price_ceiling=20.0)
        adapter = make_online(
            "greedy-cheapest-price",
            {101: 1, 102: 1},
            on_infeasible=on_infeasible,
        )
        return instance, adapter

    def test_rounds_consume_sellers_until_exhaustion(self):
        instance, adapter = self.exhausted_setup("skip")
        first = adapter.process_round(instance)
        assert first.outcome.winner_keys == {(101, 0)}  # cheapest first
        assert adapter.remaining_capacity(101) == 0
        second = adapter.process_round(instance)
        assert second.outcome.winner_keys == {(102, 0)}
        assert adapter.remaining_capacity(102) == 0

    def test_exhausted_round_skips_to_empty_outcome(self):
        instance, adapter = self.exhausted_setup("skip")
        adapter.process_round(instance)
        adapter.process_round(instance)
        third = adapter.process_round(instance)
        assert third.outcome.winner_keys == frozenset()
        assert not third.outcome.satisfied
        assert third.outcome.unmet_units == 1
        # χ must not move on a skipped round.
        assert adapter.capacity_used == {101: 1, 102: 1}
        online = adapter.finalize()
        online.verify_capacities()
        assert online.social_cost == pytest.approx(11.0)

    def test_exhausted_round_raises_when_configured(self):
        instance, adapter = self.exhausted_setup("raise")
        adapter.process_round(instance)
        adapter.process_round(instance)
        with pytest.raises(InfeasibleInstanceError):
            adapter.process_round(instance)

    def test_exhausted_round_best_effort_clamps_to_supply(self):
        instance, adapter = self.exhausted_setup("best_effort")
        assert adapter.process_round(instance).outcome.winner_keys == {(101, 0)}
        assert adapter.process_round(instance).outcome.winner_keys == {(102, 0)}
        third = adapter.process_round(instance)
        # No admissible seller covers buyer 1 any more: its demand
        # clamps to zero and the round serves nothing.
        assert dict(third.outcome.instance.demand) == {1: 0}
        assert third.outcome.winner_keys == frozenset()
        assert adapter.capacity_used == {101: 1, 102: 1}
        online = adapter.finalize()
        online.verify_capacities()
        assert online.social_cost == pytest.approx(11.0)


class TestOutcomeFromSelection:
    def test_zero_utility_bids_dropped(self, make_instance):
        instance = make_instance()
        greedy = get_mechanism("greedy-density")(instance)
        chosen = [w.bid for w in greedy.winners]
        # Feeding the same winner twice: the replay must drop the
        # second, marginally useless copy instead of double counting.
        outcome = outcome_from_selection(
            instance,
            chosen + chosen[:1],
            mechanism="test",
            payment_rule="pay-as-bid",
        )
        assert len(outcome.winners) == len(chosen)
        assert outcome.social_cost == pytest.approx(greedy.social_cost)

    def test_infeasible_selection_fails_verification(self, make_instance):
        instance = make_instance()
        with pytest.raises(InfeasibleInstanceError):
            outcome_from_selection(
                instance, [], mechanism="test", payment_rule="pay-as-bid"
            )

    def test_require_cover_false_reports_shortfall(self, make_instance):
        instance = make_instance()
        outcome = outcome_from_selection(
            instance,
            [],
            mechanism="test",
            payment_rule="pay-as-bid",
            require_cover=False,
        )
        assert not outcome.satisfied
        assert outcome.unmet_units == sum(instance.demand.values())
