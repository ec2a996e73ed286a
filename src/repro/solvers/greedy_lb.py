"""Fast lower bounds for the winner-selection problem.

Large sweeps sometimes need a cheap optimum proxy when even HiGHS is too
slow to call thousands of times.  Two bounds are provided, both valid
lower bounds on the ILP optimum:

* :func:`fractional_unit_bound` — fill demand units with the cheapest
  average-price fractions (ignores the one-bid-per-seller constraint).
* :func:`lp_bound` — the LP-relaxation optimum (tighter, slower).

No sweep calls them yet: the experiment harness always uses the exact
MILP.
"""

from __future__ import annotations

from repro.core.wsp import CoverageState, WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.solvers.lp_relax import solve_lp_relaxation

__all__ = ["fractional_unit_bound", "lp_bound"]


def fractional_unit_bound(instance: WSPInstance) -> float:
    """A lower bound from fractional cheapest-unit filling.

    Every feasible solution pays at least the sum of the cheapest
    per-unit rates needed to assemble ``total_demand`` units, because each
    selected bid delivers its units at its own average price and fractions
    can only be cheaper than integral selections.
    """
    demand = {b: u for b, u in instance.demand.items() if u > 0}
    if not demand:
        return 0.0
    coverage = CoverageState(demand=demand)
    rates: list[tuple[float, int]] = []
    for bid in instance.bids:
        utility = coverage.utility_of(bid)
        if utility > 0:
            rates.append((bid.price / utility, utility))
    rates.sort()
    unmet = instance.total_demand
    bound = 0.0
    for rate, units in rates:
        take = min(units, unmet)
        bound += rate * take
        unmet -= take
        if unmet == 0:
            return bound
    raise InfeasibleInstanceError(
        f"{unmet} demand units cannot be covered even fractionally"
    )


def lp_bound(instance: WSPInstance) -> float:
    """The LP-relaxation optimum — the tightest polynomial lower bound."""
    return solve_lp_relaxation(instance).objective
