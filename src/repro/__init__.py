"""repro — a reproduction of "Incentivizing Microservices for Online
Resource Sharing in Edge Clouds" (Samanta, Jiao, Mühlhäuser, Wang —
IEEE ICDCS 2019).

The package implements the paper's truthful auction mechanisms plus every
substrate they depend on:

* :mod:`repro.core` — SSAM (the single-stage greedy primal–dual auction
  with critical payments) and MSOA (the capacity-aware online framework),
  with dual-fitting certificates and the Theorem-3/7 bounds.
* :mod:`repro.demand` — the Section-III demand estimator (three
  indicators blended with AHP-derived weights).
* :mod:`repro.edge` + :mod:`repro.sim` — the edge-cloud substrate: a
  discrete-event request simulator, fair sharing, microservices, users,
  backhaul network, and the platform loop of Figure 2.
* :mod:`repro.solvers` — exact MILP / branch-and-bound / LP-relaxation
  solvers providing the optimum denominators of the evaluation.
* :mod:`repro.baselines` — posted-price, random, pay-as-bid, VCG, and the
  clairvoyant offline optimum.
* :mod:`repro.workload` / :mod:`repro.experiments` — the Section-V.A
  parameter settings and the sweeps regenerating Figures 3–6.

Quickstart
----------
>>> import numpy as np
>>> from repro import MarketConfig, generate_round, run_ssam
>>> instance = generate_round(MarketConfig(), np.random.default_rng(7))
>>> outcome = run_ssam(instance)
>>> outcome.social_cost >= 0 and outcome.total_payment >= outcome.social_cost
True
"""

from repro.core import (
    AuctionOutcome,
    Bid,
    BidderProfile,
    HorizonScenario,
    MultiStageOnlineAuction,
    OnlineOutcome,
    PaymentRule,
    WSPInstance,
    run_msoa,
    run_ssam,
)
from repro.demand import DemandEstimator, DemandWeights
from repro.errors import (
    CapacityExceededError,
    ConfigurationError,
    InfeasibleInstanceError,
    MechanismError,
    ReproError,
    SimulationError,
    SolverError,
)
from repro.solvers import solve_horizon_optimal, solve_wsp_optimal
from repro.workload import MarketConfig, generate_horizon, generate_round

__version__ = "1.4.0"

__all__ = [
    "AuctionOutcome",
    "Bid",
    "BidderProfile",
    "HorizonScenario",
    "MultiStageOnlineAuction",
    "OnlineOutcome",
    "PaymentRule",
    "WSPInstance",
    "run_msoa",
    "run_ssam",
    "DemandEstimator",
    "DemandWeights",
    "CapacityExceededError",
    "ConfigurationError",
    "InfeasibleInstanceError",
    "MechanismError",
    "ReproError",
    "SimulationError",
    "SolverError",
    "solve_horizon_optimal",
    "solve_wsp_optimal",
    "MarketConfig",
    "generate_horizon",
    "generate_round",
    "__version__",
]
