"""Alternative greedy selection rules — why SSAM's density rule wins.

SSAM picks the bid with the least *average price per marginal unit*
(a density rule).  Two natural simplifications keep coming up in
practice, and both are measurably worse:

* **cheapest-price-first** ignores how much a bid contributes: it hoards
  tiny cheap bids and buys coverage one unit at a time;
* **largest-coverage-first** ignores price: it grabs wholesale bids even
  when they are overpriced.

Both run the same selection skeleton as SSAM (feasibility guard, one bid
per seller) so the comparison isolates the *ranking key*; the ablation
bench reports their social-cost gap against SSAM and the optimum.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.bids import Bid
from repro.core.mechanism import outcome_from_selection
from repro.core.outcomes import AuctionOutcome
from repro.core.ssam import _selection_strands  # shared guard, one source of truth
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import InfeasibleInstanceError

__all__ = [
    "GreedyVariantOutcome",
    "run_greedy_variant",
    "VARIANT_KEYS",
]


#: ranking keys: smaller sorts first; utility is the marginal contribution.
VARIANT_KEYS: dict[str, Callable[[Bid, int], tuple]] = {
    "density": lambda bid, utility: (bid.price / utility, bid.price),
    "cheapest_price": lambda bid, utility: (bid.price, -utility),
    "largest_coverage": lambda bid, utility: (-utility, bid.price),
}


@dataclass(frozen=True)
class GreedyVariantOutcome(AuctionOutcome):
    """Winners of one alternative-greedy run, remembering the variant."""

    variant: str = "density"


def run_greedy_variant(
    instance: WSPInstance, variant: str = "density"
) -> GreedyVariantOutcome:
    """Cover the demand with the chosen ranking rule.

    ``"density"`` reproduces SSAM's allocation (asserted in tests);
    the other variants differ only in the sort key.  The same cheap
    feasibility guard applies so all variants terminate on the same
    instance families.
    """
    try:
        key_fn = VARIANT_KEYS[variant]
    except KeyError:
        raise InfeasibleInstanceError(
            f"unknown greedy variant {variant!r}; "
            f"choose from {sorted(VARIANT_KEYS)}"
        ) from None
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    coverage = CoverageState(demand=demand)
    active: list[Bid] = list(instance.bids)
    winners: list[Bid] = []
    while not coverage.satisfied:
        candidates = []
        for bid in active:
            utility = coverage.utility_of(bid)
            if utility > 0:
                candidates.append(
                    (key_fn(bid, utility) + (bid.seller, bid.index), bid)
                )
        if not candidates:
            raise InfeasibleInstanceError(
                f"{coverage.unmet} demand units cannot be covered "
                f"(variant {variant})"
            )
        candidates.sort(key=lambda item: item[0])
        chosen = candidates[0][1]
        for _, bid in candidates:
            if not _selection_strands(bid, active, coverage):
                chosen = bid
                break
        coverage.apply(chosen)
        winners.append(chosen)
        active = [bid for bid in active if bid.seller != chosen.seller]
    base = outcome_from_selection(
        instance,
        tuple(winners),
        mechanism=f"greedy-{variant.replace('_', '-')}",
        payment_rule="pay-as-bid",
    )
    return GreedyVariantOutcome(
        instance=base.instance,
        winners=base.winners,
        duals=base.duals,
        ratio_bound=base.ratio_bound,
        payment_rule=base.payment_rule,
        iterations=base.iterations,
        mechanism=base.mechanism,
        variant=variant,
    )
