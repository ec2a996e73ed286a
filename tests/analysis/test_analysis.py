"""Mechanism-level economics and ratio checks, and the result tables."""

import numpy as np
import pytest

from repro.analysis.reporting import ResultTable
from repro.core.bids import Bid
from repro.core.msoa import run_msoa
from repro.core.ssam import run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import fig4a
from repro.experiments.runner import build_single_round, run_configured_mechanism
from repro.solvers.milp import solve_horizon_optimal, solve_wsp_optimal
from repro.verify.properties import (
    CheckSettings,
    MechanismUnderTest,
    check_individual_rationality,
    check_truthfulness,
)
from repro.workload.bidgen import (
    MarketConfig,
    ensure_online_feasible,
    generate_horizon,
    generate_round,
)
from repro.workload.scenarios import PAPER_DEFAULTS

SSAM = MechanismUnderTest(
    name="ssam",
    runner=run_ssam,
    allocate=lambda instance: run_ssam(instance).winner_keys,
)


def bid(seller, covered, price, index=0):
    return Bid(seller=seller, index=index, covered=frozenset(covered), price=price)


@pytest.fixture
def market():
    return WSPInstance.from_bids(
        [
            bid(10, {1, 2}, 12.0),
            bid(11, {1}, 5.0),
            bid(12, {2, 3}, 9.0),
            bid(13, {1, 2, 3}, 30.0),
            bid(14, {3}, 4.0),
        ],
        {1: 1, 2: 1, 3: 2},
    )


class TestEconomics:
    def test_no_ir_violations_on_ssam(self, market):
        outcome = run_ssam(market)
        checked, violations = check_individual_rationality(
            SSAM, market, outcome, 0, CheckSettings()
        )
        assert checked == len(outcome.winners) > 0
        assert violations == []

    def test_payment_price_pairs_match_winners(self):
        config = ExperimentConfig(seeds=(11,))
        table = fig4a(config, max_winners=1000)
        instance = build_single_round(PAPER_DEFAULTS, 11)
        outcome = run_configured_mechanism(config, instance, seed=11)
        pairs = [(row["price"], row["payment"]) for row in table.rows]
        assert pairs
        assert pairs == [(w.bid.price, w.payment) for w in outcome.winners]
        assert all(payment >= price - 1e-9 for price, payment in pairs)

    def test_probe_on_random_single_bid_market(self):
        rng = np.random.default_rng(9)
        instance = generate_round(
            MarketConfig(n_sellers=8, n_buyers=4, bids_per_seller=1), rng
        )
        settings = CheckSettings(max_truthfulness_bids=len(instance.bids))
        checked, violations = check_truthfulness(
            SSAM, instance, run_ssam(instance), 0, settings
        )
        assert checked > 0
        assert violations == []


class TestRatios:
    def test_ssam_ratio_at_least_one_within_bound(self, market):
        # Theorem 3 against the exact optimum: 1 ≤ cost/OPT ≤ bound.
        outcome = run_ssam(market)
        ratio = outcome.social_cost / solve_wsp_optimal(market).objective
        assert 1.0 - 1e-9 <= ratio <= outcome.ratio_bound + 1e-9

    def test_msoa_ratio_against_offline(self):
        rng = np.random.default_rng(10)
        horizon, capacities = generate_horizon(
            MarketConfig(n_sellers=8, n_buyers=4), rng, rounds=3
        )
        capacities = ensure_online_feasible(horizon, capacities)
        outcome = run_msoa(horizon, capacities)
        offline = solve_horizon_optimal(horizon, capacities)
        assert offline.objective > 0
        assert outcome.social_cost >= offline.objective - 1e-6


class TestResultTable:
    def test_render_contains_all_cells(self):
        table = ResultTable(title="T", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a="x")
        text = table.render()
        assert "T" in text and "2.500" in text and "x" in text
        assert "-" in text  # missing cell placeholder

    def test_unknown_column_rejected(self):
        table = ResultTable(title="T", columns=["a"])
        with pytest.raises(ConfigurationError):
            table.add_row(zzz=1)

    def test_column_extraction(self):
        table = ResultTable(title="T", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]
        with pytest.raises(ConfigurationError):
            table.column("nope")

    def test_bool_rendering(self):
        table = ResultTable(title="T", columns=["ok"])
        table.add_row(ok=True)
        assert "yes" in table.render()

    def test_empty_table_renders_header(self):
        table = ResultTable(title="Empty", columns=["col"])
        assert "col" in table.render()
