"""A random feasible winner selection (sanity-floor baseline).

Selects bids in a uniformly random seller order (one random bid per
seller) until demand is covered, paying each winner its announced price
(pay-as-bid).  Any sensible mechanism should beat this on social cost;
benchmarks use it as the floor of the comparison band.
"""

from __future__ import annotations


import numpy as np

from repro.core.bids import Bid, group_bids_by_seller
from repro.core.mechanism import outcome_from_selection
from repro.core.outcomes import AuctionOutcome
from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import InfeasibleInstanceError

__all__ = ["run_random_selection"]


def run_random_selection(
    instance: WSPInstance, rng: np.random.Generator
) -> AuctionOutcome:
    """Cover the demand with randomly ordered sellers' random bids.

    Useful bids (positive marginal utility) are taken as sellers come up
    in the shuffled order; sellers whose sampled bid is useless are
    revisited with their other bids before giving up, so the baseline
    fails only on genuinely infeasible instances.
    """
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    coverage = CoverageState(demand=demand)
    winners: list[Bid] = []
    by_seller = group_bids_by_seller(instance.bids)
    sellers = sorted(by_seller)
    rng.shuffle(sellers)
    for seller in sellers:
        if coverage.satisfied:
            break
        bids = list(by_seller[seller])
        rng.shuffle(bids)
        for bid in bids:
            if coverage.utility_of(bid) > 0:
                coverage.apply(bid)
                winners.append(bid)
                break
    if not coverage.satisfied:
        raise InfeasibleInstanceError(
            f"random selection could not cover {coverage.unmet} demand units"
        )
    return outcome_from_selection(
        instance,
        tuple(winners),
        mechanism="random",
        payment_rule="pay-as-bid",
    )
