"""Greedy pay-as-bid — the same allocation as SSAM, naive payments.

This baseline isolates the *payment rule*: winners are chosen by exactly
SSAM's greedy, but each is paid its announced price instead of a critical
value.  Pay-as-bid is NOT truthful — a seller gains by over-asking — so
comparing it with SSAM quantifies the "price of truthfulness" (the
payment overhead visible in Figure 3(b), where total payment sits above
social cost).
"""

from __future__ import annotations

from repro.core.mechanism import outcome_from_selection
from repro.core.outcomes import AuctionOutcome
from repro.core.ssam import greedy_selection, resolve_engine
from repro.core.wsp import WSPInstance

__all__ = ["run_pay_as_bid"]


def run_pay_as_bid(
    instance: WSPInstance, *, engine: str = "columnar"
) -> AuctionOutcome:
    """Greedy winner selection, pay-as-bid payments.

    ``engine`` picks the selection implementation (one of
    :data:`~repro.core.ssam.ENGINES`); both produce the same allocation,
    so the choice only affects speed.
    """
    if resolve_engine(engine) == "columnar":
        from repro.core.columnar import columnar_greedy_selection as select
    else:
        select = greedy_selection
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    steps = select(instance.bids, demand) if demand else ()
    return outcome_from_selection(
        instance,
        tuple(step.bid for step in steps),
        mechanism="pay-as-bid",
        payment_rule="pay-as-bid",
    )
