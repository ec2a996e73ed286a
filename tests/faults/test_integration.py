"""Fault surface integration: platform loop, experiment config, the
resilience sweep, the CLI ``--faults`` flag, and the hypothesis-driven
zero-probability guard."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.msoa import run_msoa
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.resilience import (
    evaluate_fault_plan,
    run_resilience_sweep,
)
from repro.faults import (
    BidDropout,
    DemandSurge,
    FaultPlan,
    LateBid,
    ResiliencePolicy,
    SellerDefault,
    save_fault_plan,
)
from tests.integration.test_platform import build_platform

PLAN = FaultPlan(seed=5, seller_defaults=(SellerDefault(probability=0.6),))


def null_plans():
    """Plans that cannot fire: arbitrary seeds, all-zero probabilities."""
    zero_defaults = st.builds(
        SellerDefault, probability=st.just(0.0)
    )
    zero_dropouts = st.builds(BidDropout, probability=st.just(0.0))
    zero_late = st.builds(LateBid, probability=st.just(0.0))
    null_surges = st.builds(
        DemandSurge, factor=st.just(1.0),
        probability=st.floats(0.0, 1.0),
    )
    return st.builds(
        FaultPlan,
        seed=st.integers(0, 2**31 - 1),
        seller_defaults=st.tuples(zero_defaults),
        bid_dropouts=st.tuples(zero_dropouts),
        late_bids=st.tuples(zero_late),
        demand_surges=st.tuples(null_surges),
    )


class TestZeroProbabilityProperty:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(plan=null_plans(), engine=st.sampled_from(["columnar", "reference"]))
    def test_null_plan_is_bit_identical(self, make_horizon, plan, engine):
        assert plan.is_null
        horizon, capacities = make_horizon(11, rounds=2)
        reference = run_msoa(horizon, capacities, engine=engine)
        faulted = run_msoa(horizon, capacities, engine=engine, faults=plan)
        assert json.dumps(faulted.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )


class TestExperimentConfig:
    def test_accepts_plan_and_policy(self):
        config = ExperimentConfig(
            faults=PLAN, resilience=ResiliencePolicy(max_retries=1)
        )
        assert config.faults is PLAN

    def test_resilience_without_faults_rejected(self):
        with pytest.raises(ConfigurationError, match="requires faults"):
            ExperimentConfig(resilience=ResiliencePolicy())

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            ExperimentConfig(faults={"kind": "fault-plan"})
        with pytest.raises(ConfigurationError, match="ResiliencePolicy"):
            ExperimentConfig(faults=PLAN, resilience="partial")


class TestPlatformLoop:
    def test_platform_runs_under_faults(self):
        certain = FaultPlan(
            seed=5, seller_defaults=(SellerDefault(probability=1.0),)
        )
        platform = build_platform(faults=certain)
        reports = platform.run(3)
        assert len(reports) == 3
        auctioned = [r for r in reports if r.auction is not None]
        assert auctioned, "the overloaded deployment must trade"
        faulted = [
            r for r in auctioned if r.auction.resilience is not None
        ]
        assert faulted, "certain defaults must leave visible reports"
        assert any(
            e.kind == "seller-default"
            for r in faulted
            for e in r.auction.resilience.events
        )

    def test_platform_null_plan_matches_unfaulted(self):
        clean = [r.social_cost for r in build_platform().run(3)]
        nulled = [
            r.social_cost
            for r in build_platform(faults=FaultPlan()).run(3)
        ]
        assert clean == nulled

    def test_prebuilt_mechanism_rejects_faults(self):
        from repro.core.msoa import MultiStageOnlineAuction

        prebuilt = MultiStageOnlineAuction({0: 10, 1: 10})
        with pytest.raises(ConfigurationError, match="already-built"):
            build_platform(mechanism=prebuilt, faults=PLAN)


class TestResilienceSweep:
    def test_sweep_reference_row_is_fault_free(self):
        table = run_resilience_sweep(
            mechanisms=("msoa",), probabilities=(0.0, 0.5), rounds=2
        )
        reference, faulted = table.rows
        assert reference["fault_events"] == 0
        assert reference["coverage"] == 1.0
        assert faulted["fault_events"] > 0

    def test_evaluate_plan_pairs_rows(self):
        table = evaluate_fault_plan(PLAN, mechanisms=("msoa",), rounds=2)
        assert [row["p_default"] for row in table.rows] == [0.0, 0.6]

    def test_unknown_mechanism_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="online"):
            run_resilience_sweep(mechanisms=("offline-greedy",), rounds=2)


class TestCli:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "plan.json"
        save_fault_plan(PLAN, path)
        return str(path)

    def test_run_faults_reports_events(self, spec_path, capsys):
        code = main([
            "run", "--mechanism", "msoa", "--rounds", "2",
            "--faults", spec_path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fault events" in out

    def test_run_faults_wraps_single_round_mechanism(self, spec_path, capsys):
        code = main([
            "run", "--mechanism", "pay-as-bid", "--rounds", "2",
            "--faults", spec_path,
        ])
        assert code == 0
        assert "fault events" in capsys.readouterr().out

    def test_run_faults_rejects_horizon_benchmarks(self, spec_path, capsys):
        code = main([
            "run", "--mechanism", "offline-greedy", "--faults", spec_path,
        ])
        assert code == 2
        assert "online" in capsys.readouterr().err

    def test_bench_faults_runs_the_evaluation(self, spec_path, capsys):
        code = main(["bench", "--quick", "--faults", spec_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fault-plan evaluation" in out

    def test_missing_spec_is_a_clean_error(self, tmp_path, capsys):
        code = main([
            "run", "--mechanism", "msoa",
            "--faults", str(tmp_path / "absent.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
