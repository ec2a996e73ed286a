"""Unit tests for the budget-constrained auction (Section IV's 𝒲)."""

import pytest

from repro.core.bids import Bid
from repro.core.budgeted import run_budgeted_ssam
from repro.core.ssam import run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError


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


class TestBudgetedSSAM:
    def test_generous_budget_matches_plain_ssam(self, market):
        plain = run_ssam(market)
        budgeted = run_budgeted_ssam(market, budget=plain.total_payment + 1.0)
        assert budgeted.outcome.winner_keys == plain.winner_keys
        assert not budgeted.truncated
        assert budgeted.unserved_units == 0
        assert budgeted.coverage_fraction == 1.0

    def test_tight_budget_truncates_in_greedy_order(self, market):
        plain = run_ssam(market)
        first_payment = min(
            plain.winners, key=lambda w: w.iteration
        ).payment
        budgeted = run_budgeted_ssam(market, budget=first_payment + 0.01)
        assert budgeted.truncated
        assert len(budgeted.outcome.winners) >= 1
        assert budgeted.budget_spent <= budgeted.budget + 1e-9
        assert budgeted.unserved_units > 0
        assert budgeted.coverage_fraction < 1.0

    def test_zero_budget_admits_nobody(self, market):
        budgeted = run_budgeted_ssam(market, budget=0.0)
        assert budgeted.outcome.winners == ()
        assert budgeted.unserved_units == market.total_demand
        assert budgeted.coverage_fraction == 0.0

    def test_spend_never_exceeds_budget(self, market):
        plain = run_ssam(market)
        for fraction in (0.2, 0.5, 0.8):
            cap = plain.total_payment * fraction
            budgeted = run_budgeted_ssam(market, budget=cap)
            assert budgeted.budget_spent <= cap + 1e-9

    def test_admitted_winners_keep_critical_payments(self, market):
        plain = run_ssam(market)
        payments = {w.bid.key: w.payment for w in plain.winners}
        budgeted = run_budgeted_ssam(market, budget=plain.total_payment / 2)
        for winner in budgeted.outcome.winners:
            assert winner.payment == pytest.approx(payments[winner.bid.key])
            assert winner.payment >= winner.bid.price - 1e-9  # IR preserved

    def test_negative_budget_rejected(self, market):
        with pytest.raises(ConfigurationError):
            run_budgeted_ssam(market, budget=-1.0)

    def test_empty_demand_costs_nothing(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 0})
        budgeted = run_budgeted_ssam(instance, budget=100.0)
        assert budgeted.social_cost == 0.0
        assert budgeted.coverage_fraction == 1.0


class TestBudgetBreaksTruthfulness:
    """Budget truncation keeps IR but not truthfulness: admission depends
    on a winner's greedy position, which its own price moves."""

    @staticmethod
    def market(price_103):
        return WSPInstance.from_bids(
            [
                bid(100, {1}, 5.0),
                bid(101, {0, 1}, 3.0),
                bid(102, {0}, 9.0),
                bid(103, {0, 2}, price_103),
            ],
            {0: 2, 1: 1, 2: 1},
            price_ceiling=10.0,
        )

    def test_underbidding_seller_gains_admission(self):
        true_cost = 9.0

        def utility(report):
            outcome = run_budgeted_ssam(self.market(report), budget=26.0).outcome
            for winner in outcome.winners:
                assert winner.payment >= winner.bid.price - 1e-9  # IR holds
            paid = {w.bid.seller: w.payment for w in outcome.winners}
            return paid.get(103, true_cost) - true_cost, sorted(paid.items())

        # Truthful: 103 is SSAM's second winner and the budget cuts it.
        assert utility(true_cost) == (0.0, [(101, 10.0)])
        # Under-bidding moves 103 to the front, admitted at the same 18.
        assert utility(0.5) == (9.0, [(103, 18.0)])
