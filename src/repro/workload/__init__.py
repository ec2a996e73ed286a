"""Workload and market generation (Section V.A parameter settings).

Synthetic bid markets with the paper's U[10, 35] prices and [10, 40]
capacities, named scenario presets, and diurnal demand traces.  The
served platform draws its arrivals with
:class:`repro.sim.processes.ArrivalProcess` at the per-user rates
:func:`repro.edge.users.build_user_population` assigns.
"""

from repro.workload.bidgen import (
    MarketConfig,
    generate_capacities,
    generate_horizon,
    generate_round,
    repair_horizon_capacities,
    ensure_online_feasible,
)
from repro.workload.scenarios import (
    PAPER_DEFAULTS,
    PaperScenario,
    bids_sweep,
    microservice_sweep,
    rounds_sweep,
)
from repro.workload.trace_driven import (
    TraceDrivenConfig,
    generate_trace_driven_horizon,
)
from repro.workload.traces import DiurnalTraceConfig, generate_demand_trace

__all__ = [
    "MarketConfig",
    "generate_capacities",
    "generate_horizon",
    "generate_round",
    "repair_horizon_capacities",
    "ensure_online_feasible",
    "PAPER_DEFAULTS",
    "PaperScenario",
    "bids_sweep",
    "microservice_sweep",
    "rounds_sweep",
    "DiurnalTraceConfig",
    "generate_demand_trace",
    "TraceDrivenConfig",
    "generate_trace_driven_horizon",
]
