"""The serving facade: one object that wires platform, transport, agents.

:class:`AuctionService` is what :func:`repro.api.serve` returns — the
redesigned construction path for the platform.  It owns the transport,
builds the platform core from a :class:`~repro.dist.scenario.DistScenario`
(without the direct-wiring deprecation), spawns one
:class:`~repro.dist.agents.SellerAgent` per microservice (each with its
private cost policy and private RNG stream), and drives the
:class:`~repro.dist.orchestrator.RoundOrchestrator` round loop.

Typical use is the one-shot session::

    from repro.api import serve, DistScenario

    service = serve(DistScenario(seed=7))
    reports = service.run(rounds=6)

or, for custom agent behaviour, connect a handle and drive it yourself
inside the event loop (see :meth:`AuctionService.connect` and the dist
test suite's manual-agent tests).
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable

from repro.dist.agents import (
    AgentHandle,
    BuyerAgent,
    SellerAgent,
    seller_endpoint,
    seller_stream,
)
from repro.dist.orchestrator import RoundOrchestrator
from repro.dist.scenario import DistScenario
from repro.dist.tcp import TcpTransport
from repro.dist.transport import InMemoryTransport
from repro.dist.workers import spawn_agents
from repro.edge.platform import PlatformRoundReport
from repro.errors import ConfigurationError

__all__ = ["AuctionService", "serve"]


class AuctionService:
    """A ready-to-run distributed auction session.

    Parameters
    ----------
    scenario:
        The seed-complete deployment to serve (default:
        :class:`~repro.dist.scenario.DistScenario`'s two-cloud default).
    transport:
        Message fabric; defaults to a fresh deterministic
        :class:`~repro.dist.transport.InMemoryTransport`.
    grace_window:
        Virtual-clock length of each round's bidding window.  Defaults
        to the scenario's ``resilience.bid_timeout`` when that is set —
        the fault-model knob and the serving knob are the same quantity
        — and to ``1.0`` otherwise.
    wall_timeout:
        Real-seconds liveness guard per round (see
        :class:`~repro.dist.orchestrator.RoundOrchestrator`).
    seller_delays:
        Optional per-seller virtual submission latency (seller id →
        delay).  A delay beyond the grace window makes that seller's
        bids genuinely late; this intentionally breaks sync/async parity
        for the delayed sellers, so leave it empty when asserting the
        determinism contract.
    clock:
        ``"virtual"`` (the default) or ``"wall"``.  Selects the clock
        mode of the transport the service builds, which the orchestrator
        runs on; under ``"wall"`` the grace window is a real timeout and
        the determinism contract is relaxed (see ``docs/serving.md``).
        An explicit ``transport`` already carries its mode, and a
        ``clock`` that contradicts it is refused.
    listen:
        ``(host, port)`` to serve over TCP instead of in memory: the
        service builds a :class:`~repro.dist.tcp.TcpTransport` router,
        binds it when serving starts, and expects seller agents to
        connect over the network (spawning ``agent_processes`` local
        worker processes to provide them, unless it is 0 and external
        agents will dial in).  Port 0 binds an ephemeral port; read
        :attr:`address` (or set :attr:`on_listening`) to learn it.
    agent_processes:
        With ``listen``: how many local worker OS processes to spawn
        for the seller fleet (default 2; 0 means agents are external —
        the service just waits for every seller endpoint to register).
    spawn_timeout:
        With ``listen``: real-seconds budget for every seller endpoint
        to register before serving fails with a ``TransportError``.
    """

    def __init__(
        self,
        scenario: DistScenario | None = None,
        *,
        transport: InMemoryTransport | None = None,
        grace_window: float | None = None,
        wall_timeout: float = 5.0,
        seller_delays: dict[int, float] | None = None,
        clock: str | None = None,
        listen: tuple[str, int] | None = None,
        agent_processes: int = 2,
        spawn_timeout: float = 60.0,
    ) -> None:
        self.scenario = scenario or DistScenario()
        if transport is not None:
            if listen is not None:
                raise ConfigurationError(
                    "pass either an explicit transport or listen=, not both"
                )
            if clock is not None and clock != transport.clock:
                raise ConfigurationError(
                    f"clock {clock!r} does not match the transport's "
                    f"clock {transport.clock!r}"
                )
            self.transport = transport
        elif listen is not None:
            self.transport = TcpTransport(clock=clock or "virtual")
        else:
            self.transport = InMemoryTransport(clock=clock or "virtual")
        self._listen = listen
        self.agent_processes = agent_processes
        self.spawn_timeout = spawn_timeout
        self.address: tuple[str, int] | None = None
        self.on_listening: Callable[[tuple[str, int]], None] | None = None
        self._workers = []
        if grace_window is None:
            bid_timeout = getattr(
                self.scenario.resilience, "bid_timeout", None
            )
            grace_window = float(bid_timeout) if bid_timeout else 1.0
        self.platform = self.scenario.build_platform()
        self.orchestrator = RoundOrchestrator(
            self.platform,
            self.transport,
            grace_window=grace_window,
            wall_timeout=wall_timeout,
        )
        self._seller_delays = dict(seller_delays or {})
        self.sellers: dict[int, SellerAgent] = {}
        self.buyers: dict[int, BuyerAgent] = {}
        self._spawned = False

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def connect(self, seller_id: int, *, endpoint: str | None = None) -> AgentHandle:
        """Attach a caller-driven agent for ``seller_id``; return its handle.

        The built-in :class:`~repro.dist.agents.SellerAgent` will *not*
        be spawned for this seller — the caller owns its behaviour (and
        must answer or decline :class:`~repro.dist.messages.RoundOpen`
        announcements, or the round waits out the wall-clock guard).
        """
        if self._spawned:
            raise ConfigurationError(
                "connect() must be called before the session starts serving"
            )
        handle = AgentHandle(
            self.transport,
            endpoint or seller_endpoint(seller_id),
            seller_id=seller_id,
        )
        self.orchestrator.attach_seller(seller_id, handle.endpoint)
        return handle

    def observe_buyer(self, buyer_id: int) -> BuyerAgent:
        """Spawn a passive observer tallying ``buyer_id``'s granted units."""
        if buyer_id in self.buyers:
            return self.buyers[buyer_id]
        handle = AgentHandle(self.transport, f"buyer-{buyer_id}")
        agent = BuyerAgent(handle, buyer_id)
        self.buyers[buyer_id] = agent
        return agent

    def _spawn_sellers(self) -> None:
        """Create the default seller fleet for every unattached seller."""
        if self._spawned:
            return
        self._spawned = True
        factory = self.scenario.policy_factory()
        attached = set(self.orchestrator.attached_sellers)
        for sid in self.scenario.seller_ids():
            if sid in attached:
                continue  # a caller-driven agent owns this seller
            handle = AgentHandle(
                self.transport, seller_endpoint(sid), seller_id=sid
            )
            agent = SellerAgent(
                handle,
                policy=factory(),
                rng=seller_stream(self.scenario.seed, sid),
                submission_delay=self._seller_delays.get(sid, 0.0),
            )
            self.orchestrator.attach_seller(sid, handle.endpoint)
            self.sellers[sid] = agent

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    async def serve_rounds(
        self, rounds: int | None = None
    ) -> list[PlatformRoundReport]:
        """Serve ``rounds`` (default: the scenario horizon) inside a loop.

        In-memory mode: spawns the agent fleet as tasks, runs the
        orchestrator's round loop, then broadcasts shutdown and joins
        every agent task.  TCP mode (constructed with ``listen=``):
        binds the router socket, spawns ``agent_processes`` worker
        processes (if any), waits for every seller endpoint to register,
        serves, then shuts the fleet and the transport down.  Use this
        form when composing with other coroutines (e.g. manual agents
        from :meth:`connect`); use :meth:`run` for the common one-shot
        session.
        """
        if self._listen is not None:
            return await self._serve_remote(rounds)
        self._spawn_sellers()
        agents = list(self.sellers.values()) + list(self.buyers.values())
        tasks = [asyncio.create_task(agent.run()) for agent in agents]
        try:
            reports = await self.orchestrator.run(rounds)
        finally:
            self.orchestrator.shutdown()
        await asyncio.gather(*tasks)
        return reports

    async def _serve_remote(
        self, rounds: int | None = None
    ) -> list[PlatformRoundReport]:
        """TCP serving: bind, place agents in processes, run, tear down."""
        self._spawned = True  # no in-process default fleet in TCP mode
        host, port = self._listen
        self.address = await self.transport.listen(host, port)
        if self.on_listening is not None:
            self.on_listening(self.address)
        already_attached = set(self.orchestrator.attached_sellers)
        remote_ids = tuple(
            sid
            for sid in self.scenario.seller_ids()
            if sid not in already_attached
        )
        if self.agent_processes > 0 and remote_ids:
            self._workers = spawn_agents(
                self.scenario,
                self.address[0],
                self.address[1],
                processes=self.agent_processes,
                sellers=remote_ids,
            )
        try:
            await self.transport.wait_for_endpoints(
                [seller_endpoint(sid) for sid in remote_ids],
                timeout=self.spawn_timeout,
            )
            for sid in remote_ids:
                self.orchestrator.attach_seller(sid, seller_endpoint(sid))
            buyer_tasks = [
                asyncio.create_task(agent.run())
                for agent in self.buyers.values()
            ]
            try:
                reports = await self.orchestrator.run(rounds)
            finally:
                self.orchestrator.shutdown()
            await asyncio.gather(*buyer_tasks)
            await self._join_workers()
        finally:
            self.transport.close()
        return reports

    async def _join_workers(self, timeout: float = 10.0) -> None:
        """Join spawned worker processes off the event loop thread."""
        if not self._workers:
            return
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.join, timeout)
            if worker.is_alive():  # refused the shutdown: don't leak it
                worker.terminate()
                await loop.run_in_executor(None, worker.join, 5.0)
        self._workers = []

    def run(self, rounds: int | None = None) -> list[PlatformRoundReport]:
        """One-shot session: serve ``rounds`` and return the reports.

        Owns the event loop for the duration (``asyncio.run``); for use
        from synchronous code — scripts, the CLI ``serve`` subcommand,
        tests that don't need custom agents.
        """
        return asyncio.run(self.serve_rounds(rounds))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def reports(self) -> list[PlatformRoundReport]:
        """Round reports accumulated so far (shared with the platform)."""
        return self.platform.reports

    @property
    def ledger(self):
        """The platform's money-flow ledger."""
        return self.platform.ledger

    @property
    def shard_stats(self):
        """Per-shard clearing stats when the scenario shards its rounds.

        With ``scenario.shards > 1`` the orchestrator's single
        ``complete_round`` path fans out into per-shard SSAM executions
        (:class:`~repro.shard.msoa.ShardedOnlineAuction`); this surfaces
        their :class:`~repro.shard.ssam.ShardRoundStats`.  Empty tuple
        for unsharded scenarios.
        """
        return tuple(getattr(self.platform.auction, "shard_stats", ()))

    def finalize(self):
        """Finalize the underlying online auction (competitive-ratio view)."""
        return self.platform.finalize()


def serve(
    scenario: DistScenario | None = None, **options
) -> AuctionService:
    """Build a distributed auction service — the documented entry point.

    Replaces direct :class:`~repro.edge.platform.EdgePlatform` wiring
    (which now emits a :class:`DeprecationWarning`): describe the
    deployment as a :class:`~repro.dist.scenario.DistScenario` and let
    the service own construction, agents, and the round loop.  Keyword
    options are forwarded to :class:`AuctionService` (``transport``,
    ``grace_window``, ``wall_timeout``, ``seller_delays``, ``clock``,
    ``listen``, ``agent_processes``, ``spawn_timeout``).
    """
    return AuctionService(scenario, **options)
