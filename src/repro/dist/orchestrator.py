"""The long-lived round orchestrator of the distributed platform.

:class:`RoundOrchestrator` is the platform side of the message protocol:
it owns the (facade-built) :class:`~repro.edge.platform.EdgePlatform`
core for simulation/clearing, but replaces the in-process bid-collection
phase with a message-driven round trip —

1. :meth:`~repro.edge.platform.EdgePlatform.begin_round` advances the
   simulation and estimates demand;
2. a :class:`~repro.dist.messages.RoundOpen` goes out to every attached
   seller whose context says it can bid, carrying the grace-window
   ``deadline`` on the transport's virtual clock;
3. submissions are gathered until every opened seller is accounted for —
   accepted, late (virtual delivery time past the deadline), or timed
   out on the wall-clock guard;
4. accepted bids are ordered canonically (by seller id, the same order
   the synchronous loop produces) and cleared through
   :meth:`~repro.edge.platform.EdgePlatform.complete_round` — the shared
   clearing path that makes async and sync runs bit-identical;
5. an :class:`~repro.dist.messages.OutcomeNotice` is broadcast to every
   connected agent.

Fault-model mapping: what :mod:`repro.faults` *simulates* inside the
mechanism (``LateBid``, ``bid_timeout``) exists here as real asynchrony —
a late bid is a message whose virtual delivery time missed the deadline,
and the grace window plays the role of ``ResiliencePolicy.bid_timeout``.
Mechanism-level fault plans still work unchanged (they run inside the
shared clearing path), so a fault-injected async run replays bit-identical
too.
"""

from __future__ import annotations

import asyncio

from repro.core.bids import Bid
from repro.dist.agents import ORCHESTRATOR_ENDPOINT
from repro.dist.messages import BidSubmission, OutcomeNotice, RoundOpen, Shutdown
from repro.dist.transport import InMemoryTransport
from repro.edge.platform import EdgePlatform, PlatformRoundReport, RoundContext
from repro.errors import ConfigurationError, TransportError
from repro.obs.runtime import STATE as _OBS

__all__ = ["RoundOrchestrator"]


class RoundOrchestrator:
    """Opens rounds, collects bids within a grace window, clears, notifies.

    Parameters
    ----------
    platform:
        The platform core (simulation, demand estimation, mechanism,
        ledger).  Its in-process ``bidding_policy`` is *not* consulted —
        bids come from the attached agents.
    transport:
        Where the agents live; the orchestrator registers the well-known
        ``"orchestrator"`` endpoint on it and runs on its clock mode.
        Under ``clock="wall"`` the grace window is a real timeout — a
        round closes at ``opened_at + grace_window`` real seconds
        whether or not every seller answered, so outcomes depend on
        actual peer latency and the virtual-clock determinism contract
        is explicitly relaxed (``serve --check`` only asserts outcome
        equality for virtual-clock runs; see ``docs/serving.md``).
    grace_window:
        Length (virtual-clock units) of the bidding window per round.
        Submissions delivered after ``opened_at + grace_window`` are
        late and rejected.  The distributed analogue of
        :attr:`repro.faults.policies.ResiliencePolicy.bid_timeout`.
    wall_timeout:
        Real-seconds guard per round against agents that never respond
        at all (crashed tasks, forgotten mailboxes).  Under the virtual
        clock it is purely a liveness backstop — round outcomes never
        depend on wall-clock timing, only on virtual delivery times.
        Under ``clock="wall"`` it remains the per-wait ceiling, but the
        grace window itself is already a real timeout.
    """

    def __init__(
        self,
        platform: EdgePlatform,
        transport: InMemoryTransport,
        *,
        grace_window: float = 1.0,
        wall_timeout: float = 5.0,
    ) -> None:
        if grace_window <= 0:
            raise ConfigurationError("grace_window must be positive")
        if wall_timeout <= 0:
            raise ConfigurationError("wall_timeout must be positive")
        self.platform = platform
        self.transport = transport
        self.grace_window = grace_window
        self.wall_timeout = wall_timeout
        self.mailbox = transport.register(ORCHESTRATOR_ENDPOINT)
        self._sellers: dict[int, str] = {}
        self._shut_down = False

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach_seller(self, seller_id: int, endpoint: str) -> None:
        """Register the endpoint serving ``seller_id``'s round announcements."""
        if seller_id in self._sellers:
            raise ConfigurationError(
                f"seller {seller_id} is already attached "
                f"(endpoint {self._sellers[seller_id]!r})"
            )
        self._sellers[seller_id] = endpoint

    @property
    def attached_sellers(self) -> tuple[int, ...]:
        """The seller ids with a registered agent endpoint."""
        return tuple(sorted(self._sellers))

    # ------------------------------------------------------------------
    # the round loop
    # ------------------------------------------------------------------
    async def run_round(self) -> PlatformRoundReport:
        """Serve one full auction round over the transport."""
        with _OBS.tracer.span(
            "platform.round", round_index=len(self.platform.reports)
        ) as round_span:
            context = self.platform.begin_round()
            bids = await self._collect(context)
            report = self.platform.complete_round(context, bids)
            _OBS.tracer.annotate(
                round_span,
                social_cost=report.social_cost,
                transfers=len(report.transfers),
                demand_units=sum(context.demand_units.values()),
            )
        self._broadcast_outcome(report)
        _OBS.metrics.counter("dist.rounds").inc()
        return report

    async def run(self, rounds: int | None = None) -> list[PlatformRoundReport]:
        """Serve the platform horizon (or ``rounds``); return the reports."""
        n = rounds if rounds is not None else self.platform.horizon_rounds
        return [await self.run_round() for _ in range(n)]

    def shutdown(self, reason: str = "served") -> None:
        """Broadcast :class:`Shutdown` so every agent task exits (idempotent)."""
        if self._shut_down:
            return
        self._shut_down = True
        self.transport.broadcast(
            Shutdown(reason=reason), sender=ORCHESTRATOR_ENDPOINT
        )

    # ------------------------------------------------------------------
    # bid collection over the transport
    # ------------------------------------------------------------------
    async def _collect(self, context: RoundContext) -> list[Bid]:
        """Announce the round and gather submissions within the grace window."""
        opened_at = self.transport.now
        deadline = opened_at + self.grace_window
        pending: set[int] = set()
        with _OBS.tracer.span(
            "dist.collect", round_index=context.round_index
        ) as collect_span:
            for sc in context.seller_contexts:
                endpoint = self._sellers.get(sc.seller_id)
                if endpoint is None:
                    # No agent serves this seller: it simply does not bid
                    # this round (the distributed analogue of an empty
                    # policy return), which is worth a trace event.
                    _OBS.tracer.event(
                        "dist.seller_unattached", seller=sc.seller_id
                    )
                    continue
                try:
                    self.transport.send(
                        endpoint,
                        RoundOpen(
                            round_index=context.round_index,
                            seller_id=sc.seller_id,
                            local_buyers=sc.local_buyers,
                            max_units=sc.max_units,
                            opened_at=opened_at,
                            deadline=deadline,
                        ),
                        sender=ORCHESTRATOR_ENDPOINT,
                    )
                except TransportError:
                    # The agent's connection died: the seller sits this
                    # round out (like an unattached one), but the round
                    # must still clear for everyone else.
                    _OBS.tracer.event(
                        "dist.seller_disconnected",
                        seller=sc.seller_id,
                        round_index=context.round_index,
                    )
                    _OBS.metrics.counter("dist.sellers_disconnected").inc()
                    continue
                pending.add(sc.seller_id)
            accepted, latest_delivery = await self._gather(
                context.round_index, pending, deadline
            )
            # Close the window on the virtual clock.  The round consumed
            # its grace window; if a straggler's submission was stamped
            # even later, the clock must not run backwards past it.
            # (The wall clock closes itself: advance_to is a no-op.)
            self.transport.advance_to(max(deadline, latest_delivery))
            bids = [
                bid
                for seller_id in sorted(accepted)
                for bid in accepted[seller_id].bids
            ]
            _OBS.tracer.annotate(
                collect_span,
                sellers_opened=len(context.seller_contexts),
                submissions_accepted=len(accepted),
                bids=len(bids),
            )
        return bids

    async def _gather(
        self, round_index: int, pending: set[int], deadline: float
    ) -> tuple[dict[int, BidSubmission], float]:
        """Drain the mailbox until every opened seller is accounted for.

        Under ``clock="wall"`` the wait is additionally bounded by the
        round deadline itself: once ``deadline`` real seconds pass, the
        still-pending sellers are timed out (cause ``wall_deadline``)
        and the round clears without them.  Already-delivered envelopes
        are always drained first, so a submission that arrived in time
        is never dropped by the deadline check racing the mailbox.
        """
        accepted: dict[int, BidSubmission] = {}
        answered: set[int] = set()
        latest_delivery = deadline
        metrics = _OBS.metrics
        wall = self.transport.clock == "wall"
        while pending:
            envelope = self.mailbox.get_nowait()
            if envelope is None:
                timeout = self.wall_timeout
                if wall:
                    remaining = deadline - self.transport.now
                    if remaining <= 0:
                        self._note_timeouts(
                            pending, round_index, cause="wall_deadline"
                        )
                        break
                    timeout = min(timeout, remaining)
                try:
                    envelope = await asyncio.wait_for(
                        self.mailbox.get(), timeout=timeout
                    )
                except asyncio.TimeoutError:
                    cause = "wall_guard"
                    if wall and self.transport.now >= deadline:
                        cause = "wall_deadline"
                    self._note_timeouts(pending, round_index, cause=cause)
                    break
            message = envelope.message
            if not isinstance(message, BidSubmission):
                _OBS.tracer.event(
                    "dist.unexpected_message",
                    kind=type(message).__name__,
                    sender=envelope.sender,
                )
                continue
            if message.round_index != round_index:
                # A straggler from an earlier round (e.g. one that beat
                # the wall-clock guard but lost the race): drop it.
                _OBS.tracer.event(
                    "dist.stale_submission",
                    seller=message.seller_id,
                    round_index=message.round_index,
                    current_round=round_index,
                )
                metrics.counter("dist.submissions_stale").inc()
                continue
            seller_id = message.seller_id
            if seller_id in answered:
                _OBS.tracer.event(
                    "dist.duplicate_submission",
                    seller=seller_id,
                    round_index=round_index,
                )
                metrics.counter("dist.submissions_duplicate").inc()
                continue
            answered.add(seller_id)
            pending.discard(seller_id)
            if envelope.deliver_at > latest_delivery:
                latest_delivery = envelope.deliver_at
            if envelope.deliver_at > deadline:
                # The real-asynchrony form of a late bid: the message
                # itself missed the grace window on the transport clock.
                _OBS.tracer.event(
                    "dist.late_bid",
                    seller=seller_id,
                    round_index=round_index,
                    deliver_at=envelope.deliver_at,
                    deadline=deadline,
                )
                metrics.counter("dist.submissions_late").inc()
                if wall:
                    metrics.counter("transport.late_wall_clock").inc()
                continue
            accepted[seller_id] = message
            metrics.counter("dist.submissions_accepted").inc()
        return accepted, latest_delivery

    def _note_timeouts(
        self, pending: set[int], round_index: int, *, cause: str
    ) -> None:
        """Record every still-pending seller as timed out this round."""
        for seller_id in sorted(pending):
            _OBS.tracer.event(
                "dist.bid_timeout",
                seller=seller_id,
                round_index=round_index,
                cause=cause,
            )
        _OBS.metrics.counter("dist.submissions_timeout").inc(len(pending))

    def _broadcast_outcome(self, report: PlatformRoundReport) -> None:
        if report.auction is None:
            notice = OutcomeNotice(round_index=report.round_index)
        else:
            outcome = report.auction.outcome
            notice = OutcomeNotice(
                round_index=report.round_index,
                winners=tuple(
                    (w.bid.seller, w.bid.index, w.payment)
                    for w in outcome.winners
                ),
                transfers=tuple(
                    (seller, tuple(sorted(covered)))
                    for seller, covered in report.transfers
                ),
                social_cost=report.auction.social_cost,
            )
        self.transport.broadcast(notice, sender=ORCHESTRATOR_ENDPOINT)
