"""Tests for the experiment harness (tiny sweeps, shape assertions).

Each figure function runs on a miniature configuration so the tests stay
fast; the assertions target the *qualitative* shapes the paper reports
(the full-scale numbers live in the benchmarks and EXPERIMENTS.md).
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import fig3a, fig3b, fig4a, fig4b, fig5a, fig6a, fig6b
from repro.experiments.runner import (
    build_horizon_scenario,
    build_single_round,
    mean_over_seeds,
)
from repro.errors import ConfigurationError
from repro.workload.scenarios import PAPER_DEFAULTS

TINY = ExperimentConfig(
    seeds=(11, 23),
    microservice_counts=(25, 45),
    request_levels=(100, 200),
    rounds_axis=(2, 4),
    bids_axis=(1, 2),
    horizon_rounds=3,
)


class TestRunner:
    def test_mean_over_seeds_skips_nan(self):
        values = {1: 2.0, 2: float("nan"), 3: 4.0}
        assert mean_over_seeds((1, 2, 3), values.get) == pytest.approx(3.0)

    def test_mean_over_seeds_all_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_over_seeds((1, 2), lambda s: float("nan"))

    def test_single_round_deterministic(self):
        a = build_single_round(PAPER_DEFAULTS, 5)
        b = build_single_round(PAPER_DEFAULTS, 5)
        assert a.bids == b.bids

    def test_horizon_scenario_consistent_views(self):
        scenario = build_horizon_scenario(
            PAPER_DEFAULTS, 7, estimation_sigma=0.3
        )
        assert len(scenario.rounds_true) == PAPER_DEFAULTS.rounds
        for true, est in zip(scenario.rounds_true, scenario.rounds_estimated):
            assert true.bids == est.bids
            # Conservative estimation: estimated >= true where both defined.
            for buyer, units in est.demand.items():
                assert units >= 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(seeds=())
        with pytest.raises(ConfigurationError):
            ExperimentConfig(horizon_rounds=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(capacity_relaxation=0.5)


class TestFig3a:
    def test_shape(self):
        table = fig3a(TINY)
        assert len(table.rows) == 4  # 2 counts × 2 J values
        for row in table.rows:
            assert 1.0 - 1e-9 <= row["ratio"] <= row["bound_WXi"] + 1e-9

    def test_single_bid_close_to_optimal(self):
        table = fig3a(TINY)
        single = [r["ratio"] for r in table.rows if r["bids_per_seller"] == 1]
        assert all(r <= 1.35 for r in single)


class TestFig3b:
    def test_payment_cost_optimal_ordering(self):
        table = fig3b(TINY)
        for row in table.rows:
            assert row["total_payment"] >= row["social_cost"] - 1e-9
            assert row["social_cost"] >= row["optimal_cost"] - 1e-9

    def test_more_requests_cost_more(self):
        table = fig3b(TINY)
        by_count: dict[int, dict[int, float]] = {}
        for row in table.rows:
            by_count.setdefault(row["microservices"], {})[row["requests"]] = row[
                "social_cost"
            ]
        for costs in by_count.values():
            assert costs[200] > costs[100]


class TestFig4a:
    def test_every_payment_covers_price(self):
        table = fig4a(TINY)
        assert table.rows
        for row in table.rows:
            assert row["payment_covers_price"] is True
            assert row["payment"] >= row["price"] - 1e-9


class TestFig4b:
    def test_runtimes_positive_and_under_a_second(self):
        table = fig4b(TINY, repeats=2)
        for row in table.rows:
            assert 0 < row["runner_up_ms"] < 1000
            assert 0 < row["critical_rerun_ms"] < 5000


class TestFig5a:
    def test_ratios_at_least_one_and_da_beats_base(self):
        table = fig5a(TINY)
        for row in table.rows:
            for name in ("MSOA", "MSOA-DA", "MSOA-RC", "MSOA-OA"):
                assert row[name] >= 1.0 - 0.05
            assert row["MSOA-DA"] <= row["MSOA"] + 0.05


class TestFig6a:
    def test_ratio_defined_for_every_cell(self):
        table = fig6a(TINY)
        assert len(table.rows) == 4  # 2 rounds × 2 J
        for row in table.rows:
            assert row["ratio"] >= 1.0 - 0.05


class TestFig6b:
    def test_cost_ordering(self):
        table = fig6b(TINY)
        for row in table.rows:
            assert row["total_payment"] >= row["social_cost"] - 1e-9
            assert row["social_cost"] >= row["offline_optimal"] - 1e-6

