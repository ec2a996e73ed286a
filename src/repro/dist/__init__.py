"""Distributed serving of the online auction (:mod:`repro.dist`).

The message-driven form of the paper's platform: sellers and buyers are
independent :mod:`asyncio` agents that talk to a long-lived
:class:`RoundOrchestrator` over one transport —
in-process (:class:`InMemoryTransport`) or over real sockets
(its subclass :class:`TcpTransport`, with agents optionally placed in
separate OS processes via :func:`spawn_agents`) — while simulation, demand
estimation, and clearing stay on the shared
:class:`~repro.edge.platform.EdgePlatform` core.  That shared core is
what makes a seeded ``clock="virtual"`` run bit-identical to the
synchronous replay of the same :class:`DistScenario` on *either*
transport (see :func:`replay_scenario`, ``docs/distributed.md`` and
``docs/serving.md`` for the determinism contract and its ``clock="wall"``
relaxation).

Entry points: :func:`serve` (also re-exported as :func:`repro.api.serve`)
builds an :class:`AuctionService`; ``service.run(rounds)`` serves a
one-shot session; ``service.connect(seller_id)`` hands out an
:class:`AgentHandle` for caller-driven agents.
"""

from repro.dist.agents import (
    ORCHESTRATOR_ENDPOINT,
    AgentHandle,
    AgentStreamPolicy,
    BuyerAgent,
    SellerAgent,
    default_policy_factory,
    seller_endpoint,
    seller_stream,
)
from repro.dist.messages import (
    MESSAGE_SCHEMA_VERSION,
    BidSubmission,
    Envelope,
    OutcomeNotice,
    RoundOpen,
    Shutdown,
    envelope_from_dict,
    envelope_to_dict,
    message_from_dict,
    message_to_dict,
)
from repro.dist.orchestrator import RoundOrchestrator
from repro.dist.scenario import DistScenario, replay_scenario
from repro.dist.service import AuctionService, serve
from repro.dist.tcp import TcpTransport
from repro.dist.transport import CLOCK_MODES, InMemoryTransport, Mailbox
from repro.dist.workers import agent_worker, run_agent_worker, spawn_agents

__all__ = [
    "serve",
    "AuctionService",
    "RoundOrchestrator",
    "DistScenario",
    "replay_scenario",
    "AgentHandle",
    "SellerAgent",
    "BuyerAgent",
    "AgentStreamPolicy",
    "default_policy_factory",
    "seller_endpoint",
    "seller_stream",
    "ORCHESTRATOR_ENDPOINT",
    "InMemoryTransport",
    "TcpTransport",
    "CLOCK_MODES",
    "spawn_agents",
    "run_agent_worker",
    "agent_worker",
    "Mailbox",
    "Envelope",
    "RoundOpen",
    "BidSubmission",
    "OutcomeNotice",
    "Shutdown",
    "message_to_dict",
    "message_from_dict",
    "envelope_to_dict",
    "envelope_from_dict",
    "MESSAGE_SCHEMA_VERSION",
]
