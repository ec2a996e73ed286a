"""The LP relaxation of the winner-selection problem and its dual (16).

Relaxing ``xᵗᵢⱼ ∈ {0,1}`` to ``0 ≤ xᵗᵢⱼ ≤ 1`` yields a linear program whose
optimum lower-bounds the ILP optimum; its dual is the program the paper's
dual-fitting analysis targets (Eq. 16–18).  This module solves the
relaxation with HiGHS and extracts both the primal fractional solution and
the dual prices, so tests can verify weak duality and the mechanism's
dual-fitting certificate against the *true* LP dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.wsp import WSPInstance
from repro.errors import InfeasibleInstanceError, SolverError

__all__ = ["LPRelaxation", "solve_lp_relaxation"]


@dataclass(frozen=True)
class LPRelaxation:
    """Solution of the LP relaxation of a single-round WSP.

    Attributes
    ----------
    objective:
        The optimal fractional social cost (a lower bound on the ILP).
    x:
        Fractional selection per bid, in instance bid order.
    buyer_duals:
        Dual prices ``gᵇ`` of the coverage constraints (≥ 0).
    seller_duals:
        Dual prices ``βᵢ`` of the one-bid-per-seller constraints (≥ 0).
    bound_duals:
        Dual prices ``hᵢⱼ`` of the ``x ≤ 1`` bounds, per bid in instance
        order (≥ 0).
    """

    objective: float
    x: np.ndarray
    buyer_duals: dict[int, float]
    seller_duals: dict[int, float]
    bound_duals: np.ndarray

    def dual_objective(self, instance: WSPInstance) -> float:
        """``Σ_b demand[b]·g_b − Σ_i βᵢ − Σ hᵢⱼ`` — the dual of (16).

        By strong LP duality this equals :attr:`objective` up to solver
        tolerance, which the test suite verifies.
        """
        gain = sum(
            instance.demand[b] * self.buyer_duals.get(b, 0.0)
            for b in instance.buyers
        )
        loss = sum(self.seller_duals.values()) + float(np.sum(self.bound_duals))
        return float(gain - loss)


def solve_lp_relaxation(instance: WSPInstance) -> LPRelaxation:
    """Solve the LP relaxation of ILP (12)–(15) and return primal + duals."""
    if instance.total_demand == 0:
        return LPRelaxation(
            objective=0.0,
            x=np.zeros(len(instance.bids)),
            buyer_duals={},
            seller_duals={},
            bound_duals=np.zeros(len(instance.bids)),
        )
    if not instance.bids:
        raise InfeasibleInstanceError("no bids but positive demand")
    # Imported here, not with the package: see repro.solvers.milp._solve.
    from scipy.optimize import linprog

    c, a_cover, b_cover, a_seller, b_seller = instance.constraint_matrices()
    n = len(instance.bids)
    # linprog uses A_ub @ x <= b_ub; coverage is >=, so negate.
    a_ub = np.vstack([-a_cover, a_seller])
    b_ub = np.concatenate([-b_cover, b_seller])
    result = linprog(
        c=c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if result.status == 2:
        raise InfeasibleInstanceError("LP relaxation infeasible")
    if not result.success:
        raise SolverError(f"LP relaxation failed: {result.message}")
    marginals = result.ineqlin.marginals  # one per row of A_ub, <= 0
    buyers = instance.buyers
    sellers = instance.sellers
    buyer_duals = {
        b: float(-marginals[r]) for r, b in enumerate(buyers)
    }
    seller_duals = {
        s: float(-marginals[len(buyers) + r]) for r, s in enumerate(sellers)
    }
    bound_duals = np.maximum(0.0, -np.asarray(result.upper.marginals))
    return LPRelaxation(
        objective=float(result.fun),
        x=np.asarray(result.x),
        buyer_duals=buyer_duals,
        seller_duals=seller_duals,
        bound_duals=bound_duals,
    )
