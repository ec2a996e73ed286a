"""VCG over the exact solver — the truthful gold-standard reference.

Vickrey–Clarke–Groves picks the *optimal* winner set (via the MILP) and
pays each winner its externality: the optimal cost of the market without
it minus the cost the others incur in the chosen optimum.  VCG is
truthful and individually rational but needs exact optimization (NP-hard
here), which is exactly why the paper builds a polynomial mechanism; the
benchmark comparing SSAM with VCG shows what the approximation costs in
social cost and what it saves in runtime.
"""

from __future__ import annotations

from repro.core.mechanism import outcome_from_selection
from repro.core.outcomes import AuctionOutcome
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError
from repro.solvers.milp import solve_wsp_optimal

__all__ = ["run_vcg"]


def run_vcg(instance: WSPInstance) -> AuctionOutcome:
    """Run VCG: optimal allocation + Clarke-pivot payments.

    A winner whose removal makes the instance infeasible is pivotal for
    feasibility itself; its externality is capped with the instance's
    public price ceiling (one ceiling per unit it supplies), mirroring the
    monopolist cap used by SSAM's critical payments.
    """
    optimum = solve_wsp_optimal(instance)
    winners = optimum.chosen
    payments: dict[tuple[int, int], float] = {}
    others_cost = {
        bid.key: optimum.objective - bid.price for bid in winners
    }
    for bid in winners:
        reduced = instance.without_seller(bid.seller)
        try:
            without = solve_wsp_optimal(reduced).objective
        except InfeasibleInstanceError:
            without = others_cost[bid.key] + instance.effective_ceiling * bid.size
        payments[bid.key] = without - others_cost[bid.key]
    return outcome_from_selection(
        instance,
        winners,
        mechanism="vcg",
        payment_rule="clarke-pivot",
        payments=payments,
        ratio_bound=1.0,
    )
