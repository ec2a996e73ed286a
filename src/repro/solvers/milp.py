"""Exact winner-selection optima via mixed-integer programming (HiGHS).

The paper's performance-ratio figures divide mechanism social cost by the
*optimal* objective of ILP (12) (single round) or ILP (7) (whole horizon
with capacity constraints).  This module builds those programs and solves
them with :func:`scipy.optimize.milp` (the bundled HiGHS solver), which is
exact at the instance scales of the paper (tens of microservices, a few
bids each).

A pure-Python branch-and-bound (:mod:`repro.solvers.branch_bound`)
cross-checks these results in the test suite.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bids import Bid
from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError, SolverError

if TYPE_CHECKING:
    from scipy.optimize import LinearConstraint

__all__ = ["ExactSolution", "solve_wsp_optimal", "solve_horizon_optimal"]


@dataclass(frozen=True)
class ExactSolution:
    """An exact optimum of a winner-selection (sub)problem.

    ``chosen`` lists the selected bids; for horizon problems the parallel
    ``rounds`` tuple gives each chosen bid's round index.
    """

    objective: float
    chosen: tuple[Bid, ...]
    rounds: tuple[int, ...] = ()

    @property
    def chosen_keys(self) -> frozenset[tuple[int, int]]:
        """Keys of selected bids (single-round problems)."""
        return frozenset(bid.key for bid in self.chosen)


def _solve(
    c: np.ndarray,
    constraints: list[LinearConstraint],
    n: int,
    *,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> np.ndarray:
    # scipy.optimize is imported where a program is solved: it is most of
    # the package's import time, and no clearing path solves one.
    from scipy.optimize import Bounds, milp

    options: dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = time_limit
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = mip_rel_gap
    result = milp(
        c=c,
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(lb=np.zeros(n), ub=np.ones(n)),
        options=options or None,
    )
    if result.status == 2:  # HiGHS: infeasible
        raise InfeasibleInstanceError("MILP reports the instance infeasible")
    if result.x is not None:
        # Optimal, or an incumbent within the configured gap/time budget —
        # either way a feasible solution the caller can use.
        return np.asarray(result.x)
    if result.status == 1:
        raise SolverError(
            f"MILP hit its time limit ({time_limit}s) without an incumbent"
        )
    raise SolverError(f"MILP failed: {result.message}")


def solve_wsp_optimal(instance: WSPInstance) -> ExactSolution:
    """Solve the single-round ILP (12)–(15) exactly.

    Returns the minimum social cost and one optimal winner set.  Raises
    :class:`~repro.errors.InfeasibleInstanceError` when no selection can
    cover the demand.
    """
    if instance.total_demand == 0:
        return ExactSolution(objective=0.0, chosen=())
    if not instance.bids:
        raise InfeasibleInstanceError("no bids but positive demand")
    c, a_cover, b_cover, a_seller, b_seller = instance.constraint_matrices()
    n = len(instance.bids)
    from scipy.optimize import LinearConstraint

    constraints = [
        LinearConstraint(a_cover, lb=b_cover, ub=np.inf),
        LinearConstraint(a_seller, lb=-np.inf, ub=b_seller),
    ]
    x = _solve(c, constraints, n)
    chosen = tuple(
        bid for bid, flag in zip(instance.bids, x) if flag > 0.5
    )
    instance.verify_solution(chosen)
    return ExactSolution(
        objective=float(instance.solution_cost(chosen)), chosen=chosen
    )


def solve_horizon_optimal(
    rounds: Sequence[WSPInstance],
    capacities: Mapping[int, int] | None = None,
    *,
    feasibility_only: bool = False,
    time_limit: float = 120.0,
    mip_rel_gap: float = 0.01,
) -> ExactSolution:
    """Solve the clairvoyant offline ILP (7)–(11) over a whole horizon.

    Variables span every (round, bid) pair; in addition to each round's
    coverage and one-bid-per-seller constraints, the long-run capacity
    constraint (11) limits each seller's total committed coverage units
    ``Σ_t |Sᵗᵢⱼ|·xᵗᵢⱼ ≤ Θᵢ``.  This optimum is the denominator of the
    competitive-ratio figures (5a, 6a, 6b).

    Horizon ILPs can be brutally hard when demands sit on the coverage
    boundary (branch-and-bound has nothing to prune), so the solve runs
    with a relative MIP gap (default 1%) and a time budget — the returned
    objective is within ``mip_rel_gap`` of the true optimum, which is far
    below the seed noise of any ratio figure.  ``feasibility_only`` zeroes
    the objective for the capacity-repair probes that only ask *whether* a
    schedule exists (HiGHS finds feasible points orders of magnitude
    faster than it proves optimality).
    """
    variables: list[tuple[int, Bid]] = []
    for t, instance in enumerate(rounds):
        for bid in instance.bids:
            variables.append((t, bid))
    n = len(variables)
    total_demand = sum(inst.total_demand for inst in rounds)
    if total_demand == 0:
        return ExactSolution(objective=0.0, chosen=(), rounds=())
    if n == 0:
        raise InfeasibleInstanceError("no bids across the horizon")
    if feasibility_only:
        c = np.zeros(n)
    else:
        c = np.array([bid.price for _, bid in variables], dtype=float)
    from scipy.optimize import LinearConstraint

    constraints: list[LinearConstraint] = []
    # Per-round coverage (constraint 10/13).
    for t, instance in enumerate(rounds):
        buyers = instance.buyers
        if not buyers:
            continue
        rows = np.zeros((len(buyers), n))
        buyer_row = {b: r for r, b in enumerate(buyers)}
        for col, (tt, bid) in enumerate(variables):
            if tt != t:
                continue
            for buyer in bid.covered:
                row = buyer_row.get(buyer)
                if row is not None:
                    rows[row, col] = 1.0
        lb = np.array([instance.demand[b] for b in buyers], dtype=float)
        constraints.append(LinearConstraint(rows, lb=lb, ub=np.inf))
    # Per-round one-bid-per-seller (constraint 9/14).
    for t, instance in enumerate(rounds):
        sellers = instance.sellers
        if not sellers:
            continue
        rows = np.zeros((len(sellers), n))
        seller_row = {s: r for r, s in enumerate(sellers)}
        for col, (tt, bid) in enumerate(variables):
            if tt == t:
                rows[seller_row[bid.seller], col] = 1.0
        constraints.append(
            LinearConstraint(rows, lb=-np.inf, ub=np.ones(len(sellers)))
        )
    # Long-run capacity (constraint 11).
    if capacities:
        sellers = sorted(capacities)
        rows = np.zeros((len(sellers), n))
        seller_row = {s: r for r, s in enumerate(sellers)}
        for col, (_, bid) in enumerate(variables):
            row = seller_row.get(bid.seller)
            if row is not None:
                rows[row, col] = bid.size
        ub = np.array([capacities[s] for s in sellers], dtype=float)
        constraints.append(LinearConstraint(rows, lb=-np.inf, ub=ub))

    x = _solve(
        c,
        constraints,
        n,
        time_limit=time_limit,
        mip_rel_gap=None if feasibility_only else mip_rel_gap,
    )
    chosen_pairs = [
        (t, bid) for (t, bid), flag in zip(variables, x) if flag > 0.5
    ]
    return ExactSolution(
        objective=float(sum(bid.price for _, bid in chosen_pairs)),
        chosen=tuple(bid for _, bid in chosen_pairs),
        rounds=tuple(t for t, _ in chosen_pairs),
    )
