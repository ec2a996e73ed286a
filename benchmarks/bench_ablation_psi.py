"""Ablation: MSOA's multiplicative ψ scaling vs a scaling-free greedy.

DESIGN.md design decision 3: the ψ update (Algorithm 2 line 11) is what
protects sellers' future participation.  This bench runs the same horizon
(a) with the normal update and (b) with ψ frozen at exactly 0 — SSAM
driven through the baseline adapter, the same online loop at face
prices — on a market engineered so that cheap sellers are scarce: the scaling-free
variant burns the cheap capacity early and pays more in later rounds.

Reported: total social cost of both variants plus the late-round premium
the scaling avoids.
"""

import numpy as np

from repro.analysis.reporting import ResultTable
from repro.core.bids import Bid
from repro.core.msoa import run_msoa
from repro.core.registry import make_online
from repro.core.ssam import PaymentRule
from repro.core.wsp import WSPInstance


def _scarce_market_horizon(rounds: int, rng: np.random.Generator):
    """Cheap sellers with tight capacity; expensive sellers unlimited.

    Every round, one buyer needs two units; two cheap sellers (capacity
    enough for only half the horizon) compete with two expensive ones.
    """
    buyers = {0: 1, 1: 1}
    horizon = []
    for _ in range(rounds):
        bids = [
            Bid(seller=100, index=0, covered=frozenset({0, 1}),
                price=float(rng.uniform(8.0, 10.0))),
            Bid(seller=101, index=0, covered=frozenset({0, 1}),
                price=float(rng.uniform(8.0, 10.0))),
            Bid(seller=200, index=0, covered=frozenset({0, 1}),
                price=float(rng.uniform(28.0, 32.0))),
            Bid(seller=201, index=0, covered=frozenset({0, 1}),
                price=float(rng.uniform(28.0, 32.0))),
        ]
        horizon.append(WSPInstance.from_bids(bids, buyers, price_ceiling=50.0))
    # Cheap capacity covers only half the horizon's winning volume.
    capacities = {100: rounds, 101: rounds, 200: 10 * rounds, 201: 10 * rounds}
    return horizon, capacities


def test_ablation_psi_scaling(benchmark, show):
    rng = np.random.default_rng(42)
    horizon, capacities = _scarce_market_horizon(rounds=10, rng=rng)

    options = dict(
        payment_rule=PaymentRule.ITERATION_RUNNER_UP, on_infeasible="best_effort"
    )

    def run():
        return run_msoa(horizon, capacities, **options)

    def run_frozen():
        auction = make_online("ssam", capacities, **options)
        for instance in horizon:
            auction.process_round(instance)
        return auction.finalize()

    scaled = run()  # normal MSOA (auto α)
    frozen = run_frozen()  # ψ ≡ 0: no scarcity pricing

    table = ResultTable(
        title="Ablation: ψ price scaling on a scarce-cheap-seller market",
        columns=["variant", "social_cost", "late_half_cost"],
    )
    half = len(horizon) // 2
    for name, outcome in (("MSOA (ψ scaling)", scaled), ("ψ frozen", frozen)):
        table.add_row(
            variant=name,
            social_cost=outcome.social_cost,
            late_half_cost=sum(
                r.social_cost for r in outcome.rounds[half:]
            ),
        )
    show(table)
    # The scaling spreads cheap capacity across the horizon, so its
    # late-round spending is no worse than the frozen variant's.
    assert scaled.rounds[-1].social_cost <= frozen.rounds[-1].social_cost + 1e-9
    benchmark(run)
