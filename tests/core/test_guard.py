"""Focused tests for the greedy's feasibility-guard tiers.

The cheap guard (per-buyer distinct-supplier counts) handles almost every
instance; the exact residual-feasibility guard is the escalation used
when alternative-bid conflicts defeat the cheap lookahead.  These tests
pin both tiers on hand-built instances, including the regression cases
discovered by hypothesis during development.
"""

import pytest

from repro.core.bids import Bid
from repro.core.ssam import PaymentRule, greedy_selection, run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError


def bid(seller, covered, price, index=0):
    return Bid(seller=seller, index=index, covered=frozenset(covered), price=price)


class TestCheapGuard:
    def test_protects_sole_supplier(self):
        # Seller 10's cheap alternative would consume the only supplier of
        # buyer 1's second unit.
        instance = WSPInstance.from_bids(
            [
                bid(10, {1}, 6.0, index=0),
                bid(10, {2}, 0.5, index=1),
                bid(11, {1}, 6.0),
                bid(12, {2}, 8.0),
            ],
            {1: 2, 2: 1},
        )
        outcome = run_ssam(instance)
        outcome.verify()

    def test_waived_when_no_candidate_is_safe(self):
        # Single seller covering a single buyer: the guard cannot improve
        # anything; selection must still happen.
        instance = WSPInstance.from_bids([bid(10, {1}, 3.0)], {1: 1})
        steps = greedy_selection(instance.bids, {1: 1})
        assert len(steps) == 1


class TestExactGuardEscalation:
    # Hypothesis-discovered regression: cheap guard passes per-buyer
    # counts, but seller 102's one-win budget cannot serve buyers 0 and 1
    # simultaneously through different alternative bids.
    REGRESSION = [
        bid(100, {2}, 2.0),
        bid(101, {0, 1}, 2.0, index=0),
        bid(101, {2}, 1.0, index=1),
        bid(102, {0}, 1.0, index=0),
        bid(102, {1}, 1.0, index=1),
    ]

    def test_cheap_guard_alone_strands(self):
        demand = {0: 1, 1: 1, 2: 1}
        with pytest.raises(InfeasibleInstanceError):
            greedy_selection(tuple(self.REGRESSION), dict(demand))

    def test_exact_guard_completes(self):
        demand = {0: 1, 1: 1, 2: 1}
        steps = greedy_selection(
            tuple(self.REGRESSION), dict(demand), exact_guard=True
        )
        instance = WSPInstance.from_bids(self.REGRESSION, demand)
        instance.verify_solution([s.bid for s in steps])

    def test_run_ssam_escalates_transparently(self):
        instance = WSPInstance.from_bids(
            self.REGRESSION, {0: 1, 1: 1, 2: 1}
        )
        outcome = run_ssam(instance)
        outcome.verify()

    @pytest.mark.parametrize("rule", list(PaymentRule))
    def test_escalated_run_keeps_ir(self, rule):
        instance = WSPInstance.from_bids(
            self.REGRESSION, {0: 1, 1: 1, 2: 1}
        )
        outcome = run_ssam(instance, payment_rule=rule)
        for winner in outcome.winners:
            assert winner.payment >= winner.bid.price - 1e-9

    def test_truly_infeasible_still_raises_under_exact_guard(self):
        instance = WSPInstance.from_bids([bid(10, {1}, 1.0)], {1: 2})
        with pytest.raises(InfeasibleInstanceError):
            greedy_selection(
                instance.bids, dict(instance.demand), exact_guard=True
            )

