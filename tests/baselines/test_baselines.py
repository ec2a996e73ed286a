"""Unit tests for the baseline mechanisms."""

import numpy as np
import pytest

from repro.baselines.fixed_pricing import run_posted_price
from repro.baselines.offline import run_offline_greedy, run_offline_optimal
from repro.baselines.pay_as_bid import run_pay_as_bid
from repro.baselines.random_mechanism import run_random_selection
from repro.baselines.vcg import run_vcg
from repro.core.bids import Bid
from repro.core.registry import make_online
from repro.core.ssam import run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError, InfeasibleInstanceError
from repro.solvers.milp import solve_wsp_optimal
from repro.workload.bidgen import MarketConfig, generate_horizon, generate_round


def bid(seller, covered, price, index=0, true_cost=None):
    return Bid(
        seller=seller,
        index=index,
        covered=frozenset(covered),
        price=price,
        true_cost=true_cost,
    )


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


class TestPostedPrice:
    def test_high_price_attracts_everyone(self, market):
        result = run_posted_price(market, unit_price=40.0)
        assert result.satisfied
        assert result.unmet_units == 0

    def test_low_price_starves_the_market(self, market):
        result = run_posted_price(market, unit_price=1.0)
        assert not result.satisfied
        assert result.unmet_units > 0

    def test_payment_is_posted_price_times_units(self, market):
        result = run_posted_price(market, unit_price=40.0)
        expected = sum(40.0 * b.size for b in result.winners)
        assert result.total_payment == pytest.approx(expected)

    def test_overpaying_relative_to_auction(self, market):
        # The price high enough to clear the market overpays versus SSAM's
        # targeted payments — the paper's argument against flat pricing.
        posted = run_posted_price(market, unit_price=35.0)
        auction = run_ssam(market)
        assert posted.satisfied
        assert posted.total_payment > auction.total_payment

    def test_invalid_price_rejected(self, market):
        with pytest.raises(ConfigurationError):
            run_posted_price(market, unit_price=0.0)


class TestRandomSelection:
    def test_covers_demand(self, market):
        result = run_random_selection(market, np.random.default_rng(1))
        market.verify_solution(list(result.winners))

    def test_costs_at_least_optimal(self, market):
        optimum = solve_wsp_optimal(market).objective
        for seed in range(5):
            result = run_random_selection(market, np.random.default_rng(seed))
            assert result.social_cost >= optimum - 1e-9

    def test_infeasible_raises(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 2})
        with pytest.raises(InfeasibleInstanceError):
            run_random_selection(instance, np.random.default_rng(0))


class TestPayAsBid:
    def test_allocation_matches_ssam(self, market):
        pab = run_pay_as_bid(market)
        ssam = run_ssam(market)
        assert {b.key for b in pab.winners} == ssam.winner_keys

    def test_payment_equals_social_cost(self, market):
        pab = run_pay_as_bid(market)
        assert pab.total_payment == pytest.approx(pab.social_cost)

    def test_pays_less_than_truthful_auction(self, market):
        pab = run_pay_as_bid(market)
        ssam = run_ssam(market)
        assert pab.total_payment <= ssam.total_payment + 1e-9

    def test_empty_demand(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 0})
        assert run_pay_as_bid(instance).winners == ()


class TestVCG:
    def test_optimal_allocation(self, market):
        vcg = run_vcg(market)
        assert vcg.social_cost == pytest.approx(
            solve_wsp_optimal(market).objective
        )

    def test_individual_rationality(self, market):
        vcg = run_vcg(market)
        for winner in vcg.winners:
            assert vcg.payments[winner.key] >= winner.price - 1e-9

    def test_social_cost_below_ssam(self, market):
        vcg = run_vcg(market)
        ssam = run_ssam(market)
        assert vcg.social_cost <= ssam.social_cost + 1e-9

    def test_loser_utility_zero(self, market):
        vcg = run_vcg(market)
        winning_sellers = {b.seller for b in vcg.winners}
        for seller in set(market.sellers) - winning_sellers:
            assert vcg.utility_of(seller) == 0.0

    def test_pivotal_winner_capped_by_ceiling(self):
        instance = WSPInstance.from_bids(
            [bid(10, {1}, 2.0)], {1: 1}, price_ceiling=50.0
        )
        vcg = run_vcg(instance)
        assert vcg.payments[(10, 0)] == pytest.approx(50.0)

    def test_vcg_truthful_on_random_instances(self):
        rng = np.random.default_rng(31)
        instance = generate_round(MarketConfig(n_sellers=6, n_buyers=3), rng)
        baseline = run_vcg(instance)
        for offer in instance.bids:
            base_utility = baseline.utility_of(offer.seller)
            for factor in (0.5, 1.7):
                deviated = instance.replace_bid(
                    offer.with_price(offer.price * factor)
                )
                utility = run_vcg(deviated).utility_of(offer.seller)
                assert utility <= base_utility + 1e-7


class TestOffline:
    def test_exact_matches_horizon_milp(self):
        rng = np.random.default_rng(7)
        horizon, capacities = generate_horizon(
            MarketConfig(n_sellers=8, n_buyers=4), rng, rounds=3
        )
        result = run_offline_optimal(horizon, capacities)
        assert result.exact
        assert result.social_cost == pytest.approx(
            sum(result.per_round_cost)
        )
        assert result.rounds == 3

    def test_greedy_upper_bounds_exact(self):
        rng = np.random.default_rng(8)
        horizon, capacities = generate_horizon(
            MarketConfig(n_sellers=8, n_buyers=4), rng, rounds=3
        )
        exact = run_offline_optimal(horizon, capacities)
        greedy = run_offline_greedy(horizon, capacities)
        assert not greedy.exact
        assert greedy.social_cost >= exact.social_cost - 1e-9

    def test_greedy_is_the_ssam_adapter_at_face_prices(self):
        # Offline-greedy is SSAM under MSOA's capacity screen with ψ ≡ 0
        # exactly; quartered capacities skip rounds 1 and 2.
        rng = np.random.default_rng(0)
        horizon, capacities = generate_horizon(
            MarketConfig(n_sellers=8, n_buyers=4), rng, rounds=4
        )
        capacities = {s: max(1, c // 4) for s, c in capacities.items()}
        adapter = make_online("ssam", capacities, on_infeasible="skip")
        results = [adapter.process_round(instance) for instance in horizon]
        greedy = run_offline_greedy(horizon, capacities)
        assert greedy.per_round_cost == tuple(r.social_cost for r in results)
        assert greedy.per_round_cost[1:3] == (0.0, 0.0)
        assert all(
            psi == 0.0 for r in results for psi in r.psi_after.values()
        )
