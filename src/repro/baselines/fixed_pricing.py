"""The flat-price repurchasing baseline (the introduction's alternative).

"One approach ... may be 'pricing', i.e., letting the edge cloud operator
repurchase those resources from the microservices at fixed or flat
prices."  The operator posts a per-unit price; sellers accept when the
price covers their own per-unit cost; the platform then takes accepting
bids (cheapest-per-unit first, to be generous to the baseline) until
demand is covered, paying each winner the posted price per unit it
contributes.

The paper's critique — under-pricing starves the market, over-pricing
overpays — is exactly what the posted-price benchmark quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bids import Bid
from repro.core.mechanism import outcome_from_selection
from repro.core.outcomes import AuctionOutcome
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import ConfigurationError

__all__ = ["PostedPriceOutcome", "run_posted_price"]


@dataclass(frozen=True)
class PostedPriceOutcome(AuctionOutcome):
    """A posted-price outcome, remembering the posted per-unit price.

    ``satisfied`` is False when the posted price attracted too few sellers
    to cover demand; the remaining units are in ``unmet_units``.  Social
    cost counts the winners' true costs (their original prices here);
    payments are posted-price per contributed unit.
    """

    posted_unit_price: float = 0.0


def run_posted_price(
    instance: WSPInstance, unit_price: float
) -> PostedPriceOutcome:
    """Run the flat-price baseline at the posted per-unit ``unit_price``.

    A seller accepts iff the posted revenue ``unit_price · |covered|``
    covers its cost; among a seller's accepting alternative bids the one
    with the best cost-per-unit is used (sellers self-select their most
    profitable offer).
    """
    if unit_price <= 0:
        raise ConfigurationError(f"unit_price must be positive, got {unit_price}")
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    coverage = CoverageState(demand=demand)
    # Each seller offers its cheapest-per-unit accepting bid.
    accepting: dict[int, Bid] = {}
    for bid in instance.bids:
        if unit_price * bid.size < bid.cost:
            continue  # posted price does not cover this seller's cost
        current = accepting.get(bid.seller)
        if current is None or bid.cost / bid.size < current.cost / current.size:
            accepting[bid.seller] = bid
    winners: list[Bid] = []
    for bid in sorted(
        accepting.values(), key=lambda b: (b.cost / b.size, b.seller)
    ):
        if coverage.satisfied:
            break
        if coverage.utility_of(bid) > 0:
            coverage.apply(bid)
            winners.append(bid)
    base = outcome_from_selection(
        instance,
        tuple(winners),
        mechanism="posted-price",
        payment_rule="posted-price",
        payments={bid.key: unit_price * bid.size for bid in winners},
        # Market efficiency under posted pricing is measured at true costs.
        original_prices={bid.key: bid.cost for bid in winners},
        require_cover=False,
    )
    return PostedPriceOutcome(
        instance=base.instance,
        winners=base.winners,
        duals=base.duals,
        ratio_bound=base.ratio_bound,
        payment_rule=base.payment_rule,
        iterations=base.iterations,
        mechanism=base.mechanism,
        posted_unit_price=unit_price,
    )
