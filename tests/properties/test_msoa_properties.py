"""Property-based verification of MSOA's theorems (6–8) and the solvers.

* capacity safety: no seller ever exceeds Θᵢ (constraint 11),
* per-round primal feasibility (Theorem 6),
* the αβ/(β−1) competitive bound against the clairvoyant optimum
  (Theorem 7),
* individual rationality through the scaled prices (Theorem 8),
* exact solver cross-validation (MILP ≡ branch-and-bound),
* monotone ψ trajectories (the scarcity price never decreases).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.msoa import run_msoa
from repro.core.ssam import PaymentRule
from repro.errors import InfeasibleInstanceError
from repro.solvers.branch_bound import solve_wsp_branch_bound
from repro.solvers.milp import solve_horizon_optimal, solve_wsp_optimal

from tests.properties.strategies import horizons, wsp_instances

#: Hypothesis sweeps are the repo's statistical tier; 'pytest -m
#: "not slow"' skips them for the quick signal, CI runs them in full.
pytestmark = [pytest.mark.property, pytest.mark.slow]

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@COMMON
@given(data=horizons())
def test_capacity_safety_and_feasibility(data):
    """Theorem 6: every round primal feasible, χᵢ ≤ Θᵢ throughout."""
    rounds, capacities = data
    outcome = run_msoa(rounds, capacities, on_infeasible="best_effort")
    outcome.verify_capacities()
    for round_result in outcome.rounds:
        round_result.outcome.verify()


@COMMON
@given(data=horizons())
def test_competitive_bound(data):
    """Theorem 7: offline optimum ≤ online cost ≤ (αβ/(β−1)) × optimum."""
    rounds, capacities = data
    try:
        outcome = run_msoa(rounds, capacities, on_infeasible="raise")
        offline = solve_horizon_optimal(rounds, capacities)
    except InfeasibleInstanceError:
        return
    if offline.objective <= 0:
        return
    assert outcome.social_cost >= offline.objective - 1e-6
    bound = outcome.competitive_bound
    if math.isinf(bound):
        return
    assert outcome.social_cost <= bound * offline.objective + 1e-6


@COMMON
@given(data=horizons())
def test_online_ir_through_scaling(data):
    """Theorem 8: payments cover announced prices despite price scaling."""
    rounds, capacities = data
    outcome = run_msoa(rounds, capacities, on_infeasible="best_effort")
    for round_result in outcome.rounds:
        for winner in round_result.outcome.winners:
            original = round_result.original_bids[winner.bid.key]
            assert winner.payment >= original.price - 1e-9


@COMMON
@given(data=horizons())
def test_psi_monotone_nondecreasing(data):
    """The scarcity prices ψᵢ never decrease across rounds."""
    rounds, capacities = data
    outcome = run_msoa(rounds, capacities, on_infeasible="best_effort")
    previous = {seller: 0.0 for seller in capacities}
    for round_result in outcome.rounds:
        for seller, psi in round_result.psi_after.items():
            assert psi >= previous.get(seller, 0.0) - 1e-12
        previous = dict(round_result.psi_after)


@COMMON
@given(data=horizons(max_rounds=2))
def test_scaled_cost_dominates_announced_cost(data):
    """Selection (scaled) cost is never below the announced social cost."""
    rounds, capacities = data
    outcome = run_msoa(
        rounds, capacities,
        payment_rule=PaymentRule.ITERATION_RUNNER_UP,
        on_infeasible="best_effort",
    )
    for round_result in outcome.rounds:
        assert (
            round_result.outcome.selection_cost
            >= round_result.social_cost - 1e-9
        )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(instance=wsp_instances(max_sellers=6, max_buyers=3))
def test_exact_solvers_agree(instance):
    """The HiGHS MILP and the pure-Python B&B find the same optimum."""
    milp = solve_wsp_optimal(instance)
    bb = solve_wsp_branch_bound(instance)
    assert abs(milp.objective - bb.objective) <= 1e-6
