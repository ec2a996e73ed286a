"""Manipulation experiment: what do strategic sellers achieve?

Theorem 4 is about *unilateral* deviations — no single seller gains by
lying.  This bench looks at the aggregate picture when the whole
population marks up: a uniform markup rescales every greedy ratio equally
and leaves the allocation (hence the true social cost) unchanged, while a
demand-aware opportunistic markup distorts the allocation and inflates
what the platform pays.  The unilateral-deviation guarantee itself is
verified per-seller on top.
"""

import numpy as np

from repro.analysis.reporting import ResultTable
from repro.core.ssam import PaymentRule, run_ssam
from repro.experiments.runner import build_single_round
from repro.verify.properties import (
    CheckSettings,
    MechanismUnderTest,
    check_truthfulness,
)
from repro.workload.scenarios import PAPER_DEFAULTS


def _marked_up(instance, factor_fn):
    """Re-announce every bid at ``factor_fn(bid) × cost`` (cost pinned)."""
    bids = tuple(
        bid.with_price(bid.cost * factor_fn(bid)) for bid in instance.bids
    )
    from repro.core.wsp import WSPInstance

    return WSPInstance(
        bids=bids, demand=instance.demand, price_ceiling=instance.price_ceiling
    )


def test_manipulation_landscape(benchmark, sweep_config, show):
    instance = build_single_round(PAPER_DEFAULTS, sweep_config.seeds[0])
    truthful = run_ssam(instance)

    uniform = run_ssam(_marked_up(instance, lambda bid: 1.5))
    rng = np.random.default_rng(sweep_config.seeds[0])
    factors = {bid.key: float(rng.uniform(1.0, 2.0)) for bid in instance.bids}
    skewed = run_ssam(_marked_up(instance, lambda bid: factors[bid.key]))

    def true_cost(outcome):
        return sum(w.bid.cost for w in outcome.winners)

    table = ResultTable(
        title="Population-level manipulation vs truthful bidding",
        columns=["population", "true_social_cost", "platform_payment"],
        precision=2,
    )
    table.add_row(population="truthful",
                  true_social_cost=true_cost(truthful),
                  platform_payment=truthful.total_payment)
    table.add_row(population="uniform 1.5x markup",
                  true_social_cost=true_cost(uniform),
                  platform_payment=uniform.total_payment)
    table.add_row(population="skewed U[1,2]x markup",
                  true_social_cost=true_cost(skewed),
                  platform_payment=skewed.total_payment)
    show(table)

    # A uniform markup rescales all ratios equally: same winners.
    assert uniform.winner_keys == truthful.winner_keys
    assert true_cost(uniform) == true_cost(truthful)
    # Skewed markups distort the allocation in either direction (the
    # greedy is not optimal, so a lucky distortion can even lower true
    # cost); the robust fact is that the optimum is a floor for all.
    from repro.solvers.milp import solve_wsp_optimal

    floor = solve_wsp_optimal(instance).objective
    assert true_cost(skewed) >= floor - 1e-9
    assert true_cost(truthful) >= floor - 1e-9

    # And the unilateral guarantee itself (Theorem 4): no single seller
    # can profit by misreporting while others stay honest, checked in the
    # theorem's single-parameter projection by `repro verify`'s sweep.
    ssam = MechanismUnderTest(
        name="ssam",
        runner=run_ssam,
        allocate=lambda inst: run_ssam(
            inst, payment_rule=PaymentRule.ITERATION_RUNNER_UP
        ).winner_keys,
    )
    checked, violations = check_truthfulness(
        ssam, instance, truthful, 0, CheckSettings()
    )
    assert checked > 0
    assert violations == []

    benchmark(run_ssam, instance)
