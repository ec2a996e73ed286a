"""The stable public API of the ``repro`` package.

Import from here.  Internal module layout (``repro.core.ssam``,
``repro.experiments.bench_engine``, ...) may shift between releases;
this facade is the supported surface and follows deprecation policy —
anything removed from it goes through a ``DeprecationWarning`` cycle
first.

One documented entry point per task:

===========================  ==========================================
Task                         Entry point
===========================  ==========================================
Run one auction round        :func:`run_ssam` on a :class:`WSPInstance`
Run any mechanism by name    :func:`get_mechanism` /
                             :func:`list_mechanisms` (the registry also
                             backs ``repro-edge-auction run/mechanisms``)
Run an online horizon        :func:`run_msoa` (or drive
                             :class:`MultiStageOnlineAuction` round by
                             round for streaming arrivals)
Serve live auction rounds    :func:`serve` on a :class:`DistScenario`
                             (message-driven platform; agents submit
                             bids via :meth:`AgentHandle.submit_bid`,
                             rounds run through
                             :class:`RoundOrchestrator`; over sockets
                             with ``listen=`` / :class:`TcpTransport`
                             and multi-process agents via
                             :func:`spawn_agents`; CLI:
                             ``repro-edge-auction serve
                             [--transport tcp]``)
Check serving determinism    :func:`replay_scenario` — the synchronous
                             oracle a seeded :func:`serve` session must
                             match bit for bit
Build a synthetic market     :func:`generate_round` /
                             :func:`generate_horizon` with
                             :class:`MarketConfig`
Pick the payment rule        :class:`PaymentRule` (keyword
                             ``payment_rule=``)
Check against the oracle     keyword ``engine="reference"`` on
                             :func:`run_ssam` / :func:`run_msoa` (the
                             default ``"columnar"`` engine is
                             bit-identical)
Compare vs the exact optimum :func:`solve_wsp_optimal`
Persist / reload results     :meth:`AuctionOutcome.to_dict` /
                             :meth:`AuctionOutcome.from_dict` (same for
                             :class:`OnlineOutcome`), or
                             :func:`save_outcome` / :func:`load_outcome`
Time the engine              :func:`run_engine_bench` (CLI:
                             ``repro-edge-auction bench``)
Trace / profile a run        :func:`observing` (or :func:`configure`),
                             then :func:`summarize` on the trace file
                             (CLI: ``--trace/--metrics`` flags)
Inject faults / recover      :class:`FaultPlan` via keyword ``faults=``
                             on :func:`run_msoa` / :func:`make_online`,
                             tuned by :class:`ResiliencePolicy`
                             (keyword ``resilience=``; CLI: ``--faults``)
===========================  ==========================================

Mechanism options are keyword-only and share one vocabulary everywhere:
``payment_rule=``, ``engine=`` (``"columnar"``, the default, or the
``"reference"`` oracle), and (for online runs) ``faults=``,
``resilience=``.  The greedy's stranding guard is always on.

.. versionchanged:: 1.4
    The retired 1.3 spellings are removed: ``guard=`` and
    ``parallelism=`` on :func:`run_ssam` and
    :class:`MultiStageOnlineAuction`, ``guard=`` on :func:`run_msoa`,
    the matching registry options, and ``engine="fast"``.  Passing one
    is a ``TypeError`` (or a :class:`ConfigurationError` through
    :func:`make_online` and ``engine=``).

.. deprecated:: 1.3
    Two shims remain, because the repository benchmark
    (``perfbench/``) still passes them: ``parallelism=`` on
    :func:`run_msoa` and ``shard_workers=`` on ``ShardedOnlineAuction``
    warn and change nothing (payments and shards always run serially).

.. deprecated:: 1.2
    Wiring sellers and buyers directly into
    :class:`~repro.edge.platform.EdgePlatform` warns; describe the
    deployment as a :class:`DistScenario` and build through
    :func:`serve` instead (the synchronous oracle stays available as
    :func:`replay_scenario`).

>>> import numpy as np
>>> from repro.api import MarketConfig, generate_round, run_ssam
>>> instance = generate_round(MarketConfig(), np.random.default_rng(7))
>>> outcome = run_ssam(instance)
>>> outcome.total_payment >= outcome.social_cost
True

Every mechanism — SSAM and all baselines — returns the same
:class:`AuctionOutcome` (tagged with ``outcome.mechanism``), so results
compare and persist uniformly:

>>> from repro.api import get_mechanism
>>> get_mechanism("vcg")(instance).mechanism
'vcg'

Online horizons run the same way, and accept a seeded fault plan; the
defaulted seller's demand is re-auctioned, and the faulted run stays
reproducible (same plan, same outcome):

>>> from repro.api import FaultPlan, SellerDefault, generate_horizon, run_msoa
>>> rounds, capacities = generate_horizon(
...     MarketConfig(), np.random.default_rng(7), rounds=4)
>>> plan = FaultPlan(seed=3, seller_defaults=(SellerDefault(probability=0.3),))
>>> faulted = run_msoa(rounds, capacities, faults=plan)
>>> faulted.fault_events > 0
True
>>> faulted.social_cost == run_msoa(rounds, capacities, faults=plan).social_cost
True
"""

from __future__ import annotations

from repro.core.bids import Bid, BidderProfile
from repro.core.mechanism import Mechanism, OnlineMechanism
from repro.core.msoa import MultiStageOnlineAuction, run_msoa
from repro.core.outcomes import (
    AuctionOutcome,
    OnlineOutcome,
    RoundResult,
    WinningBid,
)
from repro.core.registry import (
    MechanismSpec,
    get_mechanism,
    list_mechanisms,
    make_online,
    mechanism_specs,
)
from repro.core.ssam import PaymentRule, run_ssam
from repro.core.wsp import WSPInstance
from repro.dist import (
    AgentHandle,
    AuctionService,
    DistScenario,
    InMemoryTransport,
    RoundOrchestrator,
    TcpTransport,
    replay_scenario,
    serve,
    spawn_agents,
)
from repro.errors import (
    ConfigurationError,
    InfeasibleInstanceError,
    MechanismError,
    ReproError,
)
from repro.experiments.bench_engine import run_engine_bench
from repro.experiments.storage import load_outcome, save_outcome
from repro.faults import (
    BidDropout,
    CloudChurn,
    DemandSurge,
    FaultPlan,
    LateBid,
    ResiliencePolicy,
    SellerDefault,
    load_fault_plan,
    save_fault_plan,
)
from repro.obs import (
    ObservabilityConfig,
    TraceSummary,
    configure,
    observing,
    read_trace,
    summarize,
)
from repro.solvers import solve_wsp_optimal
from repro.workload import MarketConfig, generate_horizon, generate_round

__all__ = [
    # mechanisms
    "run_ssam",
    "run_msoa",
    "MultiStageOnlineAuction",
    "PaymentRule",
    # the mechanism protocol + registry
    "Mechanism",
    "OnlineMechanism",
    "MechanismSpec",
    "get_mechanism",
    "list_mechanisms",
    "mechanism_specs",
    "make_online",
    # market model
    "Bid",
    "BidderProfile",
    "WSPInstance",
    "MarketConfig",
    "generate_round",
    "generate_horizon",
    # outcomes & persistence
    "AuctionOutcome",
    "OnlineOutcome",
    "RoundResult",
    "WinningBid",
    "save_outcome",
    "load_outcome",
    # distributed serving
    "serve",
    "AuctionService",
    "RoundOrchestrator",
    "AgentHandle",
    "DistScenario",
    "replay_scenario",
    "InMemoryTransport",
    "TcpTransport",
    "spawn_agents",
    # references & tooling
    "solve_wsp_optimal",
    "run_engine_bench",
    # faults & resilience
    "FaultPlan",
    "SellerDefault",
    "BidDropout",
    "LateBid",
    "CloudChurn",
    "DemandSurge",
    "ResiliencePolicy",
    "load_fault_plan",
    "save_fault_plan",
    # observability
    "ObservabilityConfig",
    "configure",
    "observing",
    "summarize",
    "read_trace",
    "TraceSummary",
    # errors
    "ReproError",
    "ConfigurationError",
    "InfeasibleInstanceError",
    "MechanismError",
]
