"""Budget-constrained single-stage auction (Section IV's budget 𝒲).

Section IV's online mechanism sketch stops admitting winners "until
either the total budget 𝒲 is depleted or the last microservice has been
processed".  The figure experiments never bind the budget, so the main
:mod:`repro.core.ssam` implementation omits it; this module provides the
budgeted variant as the paper describes it, for platforms that cap their
per-round payout.

Design notes
------------
Running SSAM and truncating its winner list when cumulative *payments*
cross 𝒲 keeps individual rationality (each admitted bid is still paid
its SSAM critical value, which is at least its price) while making
coverage best-effort: the outcome reports how much demand was left
unserved when the money ran out.

It does **not** keep truthfulness.  Admission depends on a winner's
position in the greedy order, and its own price moves that position, so
a seller cut by the budget at its true price can be admitted by
under-bidding and still collect the same critical payment
(``tests/core/test_budgeted.py`` pins such an instance).

Exact budget-feasible mechanism design (à la Singer's knapsack auctions,
where the *threshold payments themselves* are budget-aware) is beyond
what the paper specifies; the docstring-level contract here is the
paper's literal stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.outcomes import AuctionOutcome, WinningBid
from repro.core.ssam import PaymentRule, run_ssam
from repro.core.wsp import WSPInstance
from repro.errors import ConfigurationError

__all__ = ["BudgetedOutcome", "run_budgeted_ssam"]


@dataclass(frozen=True)
class BudgetedOutcome:
    """Result of a budget-capped single-stage auction.

    Attributes
    ----------
    outcome:
        The (possibly truncated) auction outcome; winners appear in the
        greedy's acceptance order, exactly as SSAM admitted them.
    budget:
        The payout cap 𝒲 the platform declared.
    budget_spent:
        Payments actually committed (≤ budget).
    unserved_units:
        Demand units left uncovered because the budget ran out (0 when
        the budget never bound).
    truncated:
        Whether the stopping rule fired before coverage completed.
    """

    outcome: AuctionOutcome
    budget: float
    budget_spent: float
    unserved_units: int
    truncated: bool

    @property
    def social_cost(self) -> float:
        """Σ winning prices of the admitted bids."""
        return self.outcome.social_cost

    @property
    def coverage_fraction(self) -> float:
        """Fraction of the round's demand units actually served."""
        total = self.outcome.instance.total_demand
        if total == 0:
            return 1.0
        return 1.0 - self.unserved_units / total


def run_budgeted_ssam(
    instance: WSPInstance,
    budget: float,
    payment_rule: PaymentRule = PaymentRule.CRITICAL_RERUN,
) -> BudgetedOutcome:
    """Run SSAM under a total payment budget 𝒲 (Section IV stopping rule).

    Winners are admitted in SSAM's greedy order while the cumulative
    payment stays within ``budget``; the first winner whose payment would
    overshoot it — and everything after — is rejected.  Rejected sellers
    receive nothing and yield nothing.

    Admitted winners are paid at least their price (IR), but the rule is
    not truthful: a seller can move itself ahead of the budget cut by
    misreporting a lower price.
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be non-negative, got {budget}")
    full = run_ssam(instance, payment_rule=payment_rule)
    admitted: list[WinningBid] = []
    spent = 0.0
    truncated = False
    for winner in sorted(full.winners, key=lambda w: w.iteration):
        if spent + winner.payment > budget + 1e-12:
            truncated = True
            break
        admitted.append(winner)
        spent += winner.payment
    served: dict[int, int] = {b: 0 for b in instance.buyers}
    for winner in admitted:
        for buyer in winner.bid.covered:
            if buyer in served:
                served[buyer] += 1
    unserved = sum(
        max(0, instance.demand[b] - served[b]) for b in instance.buyers
    )
    outcome = AuctionOutcome(
        instance=instance,
        winners=tuple(admitted),
        duals=full.duals,
        ratio_bound=full.ratio_bound,
        payment_rule=full.payment_rule,
        iterations=len(admitted),
    )
    return BudgetedOutcome(
        outcome=outcome,
        budget=budget,
        budget_spent=spent,
        unserved_units=unserved,
        truncated=truncated,
    )
