"""The clairvoyant offline optimum over a whole horizon.

Definition 6's competitive ratio divides MSOA's online social cost by
"the social cost produced by an optimal solution of the offline winner
selection problem" — an omniscient solver that sees every round's bids
and demands in advance and optimizes ILP (7)–(11) jointly, including the
long-run capacity coupling.  This module wraps the horizon MILP in the
same result shape the online mechanism produces, plus a greedy offline
heuristic used when the exact horizon MILP would dominate a sweep's
runtime.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.registry import make_online
from repro.errors import SolverError
from repro.core.wsp import WSPInstance
from repro.solvers.milp import solve_horizon_optimal

__all__ = [
    "OfflineOutcome",
    "run_offline_optimal",
    "run_offline_greedy",
]


@dataclass(frozen=True)
class OfflineOutcome:
    """Social cost of a clairvoyant solution over a horizon.

    Horizon benchmarks are a cost denominator, not an auction: no
    payments or per-round winner sets survive the MILP, so this stays a
    slim cost record.  The :attr:`mechanism` tag keeps it addressable
    through the registry like every other outcome.
    """

    social_cost: float
    per_round_cost: tuple[float, ...]
    exact: bool
    mechanism: str = "offline-milp"

    @property
    def rounds(self) -> int:
        """Number of rounds in the horizon."""
        return len(self.per_round_cost)


def run_offline_optimal(
    rounds: Sequence[WSPInstance],
    capacities: Mapping[int, int] | None = None,
) -> OfflineOutcome:
    """Solve the horizon ILP (7)–(11) (the ratio denominator).

    Solved to a 1% MIP gap by default.  Pathological instances can defy
    even incumbent-finding inside the time budget (set multicover gives
    branch-and-bound nothing to prune); the fallback chain then relaxes
    the gap, and as a last resort substitutes the greedy offline heuristic
    (flagged ``exact=False``), so a sweep never dies on one hard seed.
    """
    solution = None
    for gap, budget in ((0.01, 120.0), (0.10, 60.0)):
        try:
            solution = solve_horizon_optimal(
                rounds, capacities, mip_rel_gap=gap, time_limit=budget
            )
            break
        except SolverError:
            continue
    if solution is None:
        if capacities is None:
            raise SolverError(
                "offline horizon MILP found no incumbent and no capacity "
                "map was given for the greedy fallback"
            )
        return run_offline_greedy(rounds, capacities)
    per_round = [0.0] * len(rounds)
    for bid, round_index in zip(solution.chosen, solution.rounds):
        per_round[round_index] += bid.price
    return OfflineOutcome(
        social_cost=solution.objective,
        per_round_cost=tuple(per_round),
        exact=True,
        mechanism="offline-milp",
    )


def run_offline_greedy(
    rounds: Sequence[WSPInstance],
    capacities: Mapping[int, int],
) -> OfflineOutcome:
    """A fast offline heuristic: MSOA with the ψ scaling disabled.

    Runs SSAM through the baseline adapter (``ψ ≡ 0`` exactly), i.e. each
    round is solved greedily at face prices with only the hard capacity
    exclusions — a useful, cheap upper bound on the offline optimum for
    very large sweeps.  Flagged ``exact=False``.
    """
    auction = make_online("ssam", capacities, on_infeasible="skip")
    for instance in rounds:
        auction.process_round(instance)
    outcome = auction.finalize()
    return OfflineOutcome(
        social_cost=outcome.social_cost,
        per_round_cost=tuple(r.social_cost for r in outcome.rounds),
        exact=False,
        mechanism="offline-greedy",
    )
