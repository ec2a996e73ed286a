#!/usr/bin/env python3
"""Inside the Section-III demand estimator.

Walks through the full estimation pipeline on a single simulated
microservice: run the DES server under three load levels, inspect the
three indicators (waiting-time backlog, processing-rate gap, request-rate
intensity), derive the blend weights with AHP from pairwise judgments,
and show how the final integer demand units react to load.

Run with::

    python examples/demand_estimation.py
"""

import numpy as np

from repro.demand import (
    DemandEstimator,
    DemandWeights,
    ProcessingRateIndicator,
    RequestRateIndicator,
    WaitingTimeIndicator,
)
from repro.sim import ArrivalProcess, EventKind, RequestServer, SimulationEngine


def simulate(rate: float, allocation: float, seed: int = 3, horizon: float = 120.0):
    """Run one microservice at the given load; return its round snapshot."""
    engine = SimulationEngine()
    server = RequestServer(microservice=1, allocation=allocation)
    engine.register(EventKind.ARRIVAL, server.handle_arrival)
    engine.attach(server)
    process = ArrivalProcess(
        microservice=1,
        rate=rate,
        horizon=horizon,
        rng=np.random.default_rng(seed),
        work_mean=1.0,
    )
    engine.register(EventKind.ARRIVAL, process.on_arrival)
    process.start(engine)
    engine.run_until(horizon)
    return server.stats.snapshot(0, 0.0, horizon, arrival_rate_hint=rate)


def main() -> None:
    # AHP: waiting-time backlog matters twice as much as the processing
    # gap, request-rate intensity sits between them (Saaty 1-9 scale).
    weights, ahp = DemandWeights.from_ahp_judgments(
        waiting_vs_processing=2.0,
        waiting_vs_request=1.0,
        processing_vs_request=0.5,
    )
    print("AHP-derived weights (consistency ratio "
          f"{ahp.consistency_ratio:.4f}, consistent={ahp.is_consistent}):")
    print(f"  waiting={weights.waiting:.3f}  processing="
          f"{weights.processing:.3f}  request_rate={weights.request_rate:.3f}\n")

    estimator = DemandEstimator(
        weights=weights,
        waiting=WaitingTimeIndicator(zeta=2.0),
        processing=ProcessingRateIndicator(),
        request_rate=RequestRateIndicator(delta=0.5, neighbour_density=4.0),
        max_units=6,
    )

    print("load level     served/recv  util   gamma  R-gap  T-rate  -> units")
    scenarios = [
        ("underloaded", 2.0, 8.0),
        ("balanced", 6.0, 8.0),
        ("overloaded", 14.0, 4.0),
        ("saturated", 24.0, 2.0),
    ]
    units_by_level = []
    for name, rate, allocation in scenarios:
        snap = simulate(rate, allocation)
        gamma = estimator.waiting(snap)
        r_gap = estimator.processing(snap)
        t_rate = estimator.request_rate(snap, a_max=8.0)
        units = estimator.estimate_units(snap, a_max=8.0)
        units_by_level.append(units)
        print(f"{name:12s}  {snap.served:4d}/{snap.received:4d}  "
              f"{snap.utilization:5.2f}  {gamma:5.2f}  {r_gap:5.2f}  "
              f"{t_rate:6.2f}  -> {units}")

    assert units_by_level == sorted(units_by_level), (
        "demand units must be monotone in load"
    )
    print("\ndemand grows monotonically with load — the estimator orders "
          "microservices correctly for the auction")


if __name__ == "__main__":
    main()
