"""The resilience machinery end to end: bit-identity guards, the golden
seller-default recovery trajectory, graceful degradation, and serde.

The two invariants the subsystem pins (see ``repro.faults``):

1. A ``None``/null plan changes *nothing* — outcomes are bit-identical
   to the unfaulted run on both engines and for the adapter-wrapped
   baselines.  (JSON-string comparison, because the adapters report
   ``alpha = NaN`` and ``NaN != NaN`` under dict equality.)
2. A faulted run is a pure function of (market, plan, policy): the same
   plan replays the identical fault trajectory.
"""

import json

import pytest

from repro.core.msoa import run_msoa
from repro.core.outcomes import OnlineOutcome
from repro.core.registry import make_online
from repro.errors import InfeasibleInstanceError
from repro.faults import (
    FaultPlan,
    ResiliencePolicy,
    SellerDefault,
)
from repro.obs import observing, read_trace


def as_json(outcome):
    return json.dumps(outcome.to_dict(), sort_keys=True)


def run_adapter(name, horizon, capacities, **kwargs):
    mechanism = make_online(
        name, capacities, on_infeasible="skip", **kwargs
    )
    for instance in horizon:
        mechanism.process_round(instance)
    return mechanism.finalize()


NULL_PLANS = [
    None,
    FaultPlan(),
    FaultPlan(seed=123, seller_defaults=(SellerDefault(probability=0.0),)),
]


class TestNullPlanBitIdentity:
    @pytest.mark.parametrize("engine", ["columnar", "reference"])
    def test_msoa_unchanged_on_both_engines(self, make_horizon, engine):
        horizon, capacities = make_horizon(11, rounds=3)
        reference = run_msoa(horizon, capacities, engine=engine)
        for plan in NULL_PLANS:
            faulted = run_msoa(
                horizon, capacities, engine=engine, faults=plan
            )
            assert as_json(faulted) == as_json(reference)

    @pytest.mark.parametrize("name", ["pay-as-bid", "greedy-density"])
    def test_adapters_unchanged(self, make_horizon, name):
        horizon, capacities = make_horizon(11, rounds=3)
        reference = run_adapter(name, horizon, capacities)
        for plan in NULL_PLANS:
            faulted = run_adapter(name, horizon, capacities, faults=plan)
            assert as_json(faulted) == as_json(reference)

    def test_null_plan_report_is_absent(self, make_horizon):
        horizon, capacities = make_horizon(11, rounds=3)
        outcome = run_msoa(horizon, capacities, faults=FaultPlan())
        assert all(r.resilience is None for r in outcome.rounds)
        assert outcome.fault_events == 0
        assert outcome.degraded_rounds == []


class TestGoldenRecovery:
    """A scripted default on round 1 must be re-covered by a retry."""

    @pytest.fixture
    def scenario(self, make_horizon):
        horizon, capacities = make_horizon(11, rounds=3)
        clean = run_msoa(horizon, capacities)
        victim = clean.rounds[1].outcome.winners[0].bid.seller
        plan = FaultPlan(
            seed=5,
            seller_defaults=(SellerDefault(scripted=((1, victim),)),),
        )
        return horizon, capacities, clean, victim, plan

    def test_retry_recovers_the_default(self, scenario):
        horizon, capacities, clean, victim, plan = scenario
        outcome = run_msoa(horizon, capacities, faults=plan)
        report = outcome.rounds[1].resilience
        assert report is not None
        # The injected fault is visible and attributed.
        assert [e.kind for e in report.events] == ["seller-default"]
        assert report.events[0].seller == victim
        assert report.events[0].detail["scripted"] == 1.0
        assert report.defaulted_sellers == frozenset({victim})
        # The retry re-auction recovered everything the default dropped.
        assert len(report.recoveries) >= 1
        assert report.recoveries[0].attempt == 1
        assert report.recovered_units > 0
        assert report.abandoned_units == 0
        assert not report.degraded
        assert outcome.rounds[1].outcome.satisfied
        # The defaulted seller delivers nothing in round 1.
        assert victim not in outcome.rounds[1].outcome.winning_sellers
        # Replacement coverage costs at least the first-choice coverage.
        assert outcome.social_cost >= clean.social_cost - 1e-9
        # Untouched rounds carry no resilience report.
        assert outcome.rounds[0].resilience is None
        assert outcome.rounds[2].resilience is None

    def test_trajectory_replays_bit_identically(self, scenario):
        horizon, capacities, _, _, plan = scenario
        first = run_msoa(horizon, capacities, faults=plan)
        second = run_msoa(horizon, capacities, faults=plan)
        assert as_json(first) == as_json(second)

    def test_recovery_visible_in_obs_trace(self, scenario, tmp_path):
        horizon, capacities, _, victim, plan = scenario
        path = tmp_path / "faults.jsonl"
        with observing(trace=path):
            run_msoa(horizon, capacities, faults=plan)
        events = [r for r in read_trace(path) if r["kind"] == "event"]
        names = [e["name"] for e in events]
        assert "fault-injected" in names
        assert "recovery-attempt" in names
        injected = next(e for e in events if e["name"] == "fault-injected")
        assert injected["fields"]["seller"] == victim
        assert injected["fields"]["kind"] == "seller-default"


class TestGracefulDegradation:
    def test_total_default_yields_partial_outcome(self, make_horizon):
        horizon, capacities = make_horizon(11, rounds=2)
        plan = FaultPlan(
            seed=5, seller_defaults=(SellerDefault(probability=1.0),)
        )
        outcome = run_msoa(horizon, capacities, faults=plan)
        assert isinstance(outcome, OnlineOutcome)
        for round_result in outcome.rounds:
            report = round_result.resilience
            assert report is not None and report.degraded
            # Every winner of every attempt defaulted: the uncovered set
            # is the whole demand, spelled out instead of raised.
            assert dict(report.uncovered) == dict(
                round_result.outcome.instance.demand
            )
            assert report.recovered_units == 0
            assert round_result.outcome.winners == ()
        assert outcome.degraded_rounds == [0, 1]
        assert outcome.uncovered_units > 0

    def test_degradation_raise_propagates(self, make_horizon):
        horizon, capacities = make_horizon(11, rounds=2)
        plan = FaultPlan(
            seed=5, seller_defaults=(SellerDefault(probability=1.0),)
        )
        with pytest.raises(InfeasibleInstanceError):
            run_msoa(
                horizon,
                capacities,
                faults=plan,
                resilience=ResiliencePolicy(degradation="raise"),
            )

    def test_zero_retries_abandons_immediately(self, make_horizon):
        horizon, capacities = make_horizon(11, rounds=2)
        plan = FaultPlan(
            seed=5, seller_defaults=(SellerDefault(probability=1.0),)
        )
        outcome = run_msoa(
            horizon,
            capacities,
            faults=plan,
            resilience=ResiliencePolicy(max_retries=0),
        )
        for round_result in outcome.rounds:
            assert round_result.resilience.recoveries == ()
            assert round_result.resilience.degraded


class TestSerde:
    def test_faulted_outcome_round_trips(self, make_horizon):
        horizon, capacities = make_horizon(11, rounds=3)
        plan = FaultPlan(
            seed=5, seller_defaults=(SellerDefault(probability=0.5),)
        )
        outcome = run_msoa(horizon, capacities, faults=plan)
        assert outcome.fault_events > 0
        rebuilt = OnlineOutcome.from_dict(outcome.to_dict())
        assert as_json(rebuilt) == as_json(outcome)
        faulted_rounds = [
            r for r in rebuilt.rounds if r.resilience is not None
        ]
        assert faulted_rounds
        assert rebuilt.fault_events == outcome.fault_events

    def test_fault_free_round_serializes_without_resilience_key(
        self, make_horizon
    ):
        horizon, capacities = make_horizon(11, rounds=2)
        outcome = run_msoa(horizon, capacities)
        for round_result in outcome.to_dict()["rounds"]:
            assert "resilience" not in round_result

    def test_policy_round_trips(self):
        policy = ResiliencePolicy(
            max_retries=4,
            backoff_factor=1.5,
            bid_timeout=2.0,
            degradation="raise",
            carry_uncovered=True,
        )
        assert ResiliencePolicy.from_dict(policy.to_dict()) == policy
