"""Unit tests for the LP relaxation."""

import numpy as np
import pytest

from repro.core.bids import Bid
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.solvers.lp_relax import solve_lp_relaxation
from repro.solvers.milp import solve_wsp_optimal
from repro.workload.bidgen import MarketConfig, generate_round


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


class TestLPRelaxation:
    def test_lower_bounds_ilp(self, market):
        lp = solve_lp_relaxation(market)
        ilp = solve_wsp_optimal(market)
        assert lp.objective <= ilp.objective + 1e-9

    def test_fractional_solution_within_bounds(self, market):
        lp = solve_lp_relaxation(market)
        assert np.all(lp.x >= -1e-9)
        assert np.all(lp.x <= 1 + 1e-9)

    def test_strong_duality(self, market):
        lp = solve_lp_relaxation(market)
        assert lp.dual_objective(market) == pytest.approx(
            lp.objective, abs=1e-6
        )

    def test_duals_nonnegative(self, market):
        lp = solve_lp_relaxation(market)
        assert all(v >= -1e-9 for v in lp.buyer_duals.values())
        assert all(v >= -1e-9 for v in lp.seller_duals.values())
        assert np.all(lp.bound_duals >= -1e-9)

    def test_zero_demand(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 0})
        assert solve_lp_relaxation(instance).objective == 0.0

    def test_infeasible_raises(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 2})
        with pytest.raises(InfeasibleInstanceError):
            solve_lp_relaxation(instance)

    def test_random_instances_sandwich(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            instance = generate_round(
                MarketConfig(n_sellers=8, n_buyers=4), rng
            )
            lp = solve_lp_relaxation(instance)
            ilp = solve_wsp_optimal(instance)
            assert lp.objective <= ilp.objective + 1e-6

