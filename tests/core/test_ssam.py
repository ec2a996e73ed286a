"""Unit tests for SSAM (Algorithm 1)."""

import pytest

from repro.core.bids import Bid
from repro.core.ssam import PaymentRule, greedy_selection, run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.verify.properties import (
    CheckSettings,
    MechanismUnderTest,
    check_truthfulness,
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


class TestGreedySelection:
    def test_picks_cheapest_average_price_first(self, market):
        steps = greedy_selection(market.bids, dict(market.demand))
        # (14,{3}) at 4/1 = 4.0 vs (12,{2,3}) at 9/2 = 4.5: seller 14 first.
        assert steps[0].bid.key == (14, 0)
        assert steps[0].ratio == pytest.approx(4.0)

    def test_each_seller_wins_at_most_once(self):
        instance = WSPInstance.from_bids(
            [
                bid(10, {1}, 1.0, index=0),
                bid(10, {2}, 1.0, index=1),
                bid(11, {1, 2}, 10.0),
                bid(12, {1, 2}, 11.0),
            ],
            {1: 1, 2: 1},
        )
        steps = greedy_selection(instance.bids, dict(instance.demand))
        sellers = [s.bid.seller for s in steps]
        assert len(sellers) == len(set(sellers))

    def test_raises_on_infeasible_demand(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 3})
        with pytest.raises(InfeasibleInstanceError):
            greedy_selection(instance.bids, dict(instance.demand))

    def test_coverage_before_reflects_history(self, market):
        steps = greedy_selection(market.bids, dict(market.demand))
        assert steps[0].coverage_before == {1: 0, 2: 0, 3: 0}
        later = steps[1].coverage_before
        assert sum(later.values()) > 0

    def test_guard_avoids_stranding(self):
        # Buyer 1 needs 2 units and is covered only by sellers 10 and 11.
        # Seller 10 also has a dirt-cheap alternative covering buyer 2;
        # the unguarded greedy would take it and strand buyer 1.
        instance = WSPInstance.from_bids(
            [
                bid(10, {1}, 6.0, index=0),
                bid(10, {2}, 0.5, index=1),
                bid(11, {1}, 6.0),
                bid(12, {2}, 8.0),
            ],
            {1: 2, 2: 1},
        )
        steps = greedy_selection(instance.bids, dict(instance.demand))
        chosen = {s.bid.key for s in steps}
        assert (10, 0) in chosen and (11, 0) in chosen
        instance.verify_solution([s.bid for s in steps])


class TestRunSSAM:
    def test_outcome_is_primal_feasible(self, market):
        outcome = run_ssam(market)
        outcome.verify()

    def test_social_cost_matches_winner_prices(self, market):
        outcome = run_ssam(market)
        assert outcome.social_cost == pytest.approx(
            sum(w.bid.price for w in outcome.winners)
        )

    def test_empty_demand_returns_empty_outcome(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 0})
        outcome = run_ssam(instance)
        assert outcome.winners == ()
        assert outcome.social_cost == 0.0

    def test_infeasible_instance_raises(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 2})
        with pytest.raises(InfeasibleInstanceError):
            run_ssam(instance)

    @pytest.mark.parametrize("rule", list(PaymentRule))
    def test_individual_rationality(self, market, rule):
        outcome = run_ssam(market, payment_rule=rule)
        for winner in outcome.winners:
            assert winner.payment >= winner.bid.price - 1e-9

    def test_no_truthfulness_gain(self, market):
        # Theorem 4 on every bid of the market, checked by the same
        # misreport sweep `repro verify` certifies with.
        mut = MechanismUnderTest(
            name="ssam",
            runner=run_ssam,
            allocate=lambda instance: run_ssam(instance).winner_keys,
        )
        settings = CheckSettings(max_truthfulness_bids=len(market.bids))
        checked, violations = check_truthfulness(
            mut, market, run_ssam(market), 0, settings
        )
        assert checked > 0
        assert violations == []

    def test_payment_rules_share_allocation(self, market):
        critical = run_ssam(market, payment_rule=PaymentRule.CRITICAL_RERUN)
        runner_up = run_ssam(market, payment_rule=PaymentRule.ITERATION_RUNNER_UP)
        assert critical.winner_keys == runner_up.winner_keys

    def test_runner_up_payment_never_exceeds_critical(self, market):
        # The runner-up rule is the first-iteration threshold; the true
        # critical value maximizes thresholds over all iterations of the
        # reduced run, so it can only be larger.
        critical = run_ssam(market, payment_rule=PaymentRule.CRITICAL_RERUN)
        runner_up = run_ssam(market, payment_rule=PaymentRule.ITERATION_RUNNER_UP)
        crit = {w.bid.key: w.payment for w in critical.winners}
        for winner in runner_up.winners:
            assert winner.payment <= crit[winner.bid.key] + 1e-9

    def test_duals_certify_lower_bound(self, market):
        outcome = run_ssam(market)
        duals, objective = outcome.duals.fitted()
        assert objective <= outcome.social_cost + 1e-9
        assert all(v >= 0 for v in duals.values())

    def test_original_prices_override_reporting(self, market):
        overrides = {b.key: 1.0 for b in market.bids}
        outcome = run_ssam(market, original_prices=overrides)
        assert outcome.social_cost == pytest.approx(len(outcome.winners))

    def test_monopolist_payment_capped_by_ceiling(self):
        instance = WSPInstance.from_bids(
            [bid(10, {1}, 2.0)], {1: 1}, price_ceiling=50.0
        )
        outcome = run_ssam(instance)
        assert outcome.winners[0].payment == pytest.approx(50.0)

    def test_ratio_bound_at_least_one(self, market):
        assert run_ssam(market).ratio_bound >= 1.0


class TestMonotonicity:
    """Lemma 2: a lower price can only help a bid win."""

    def test_lowering_winner_price_keeps_it_winning(self, market):
        baseline = run_ssam(market)
        for winner in baseline.winners:
            cheaper = winner.bid.with_price(winner.bid.price * 0.5)
            outcome = run_ssam(market.replace_bid(cheaper))
            assert cheaper.key in outcome.winner_keys

    def test_raising_loser_price_keeps_it_losing(self, market):
        baseline = run_ssam(market)
        losers = [
            b for b in market.bids if b.key not in baseline.winner_keys
        ]
        for loser in losers:
            pricier = loser.with_price(loser.price * 2.0)
            outcome = run_ssam(market.replace_bid(pricier))
            assert pricier.key not in outcome.winner_keys
