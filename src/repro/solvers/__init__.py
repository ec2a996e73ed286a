"""Exact and bounding solvers for the winner-selection problem.

* :mod:`repro.solvers.milp` — exact optima via SciPy's HiGHS MILP, for
  single rounds and whole horizons (the figures' ratio denominators).
* :mod:`repro.solvers.branch_bound` — pure-Python exact cross-check.
* :mod:`repro.solvers.lp_relax` — LP relaxation with dual extraction.
"""

from repro.solvers.branch_bound import solve_wsp_branch_bound
from repro.solvers.lp_relax import LPRelaxation, solve_lp_relaxation
from repro.solvers.milp import ExactSolution, solve_horizon_optimal, solve_wsp_optimal

__all__ = [
    "solve_wsp_branch_bound",
    "LPRelaxation",
    "solve_lp_relaxation",
    "ExactSolution",
    "solve_horizon_optimal",
    "solve_wsp_optimal",
]
