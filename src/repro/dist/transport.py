"""The message transport of the distributed auction platform.

The orchestrator and every agent talk exclusively through a transport:
named endpoints register a :class:`Mailbox`, senders address recipients
by endpoint name, and each delivery is an
:class:`~repro.dist.messages.Envelope` stamped with a transport-wide
sequence number and send/delivery times on the transport's clock.

:class:`InMemoryTransport` is the one transport core: it validates
``delay`` (finite and non-negative), assigns ``seq``, stamps and
delivers every envelope, and owns the clock.  Mailboxes are
``asyncio.Queue`` objects, delivery is immediate on the wall clock, and
latency is modelled on a *virtual clock* — ``send(..., delay=d)``
stamps the envelope ``deliver_at = now + d`` without sleeping, so a
grace-window deadline is an exact, reproducible comparison instead of a
race.  :class:`~repro.dist.tcp.TcpTransport` subclasses it and adds only
the wire roles (length-prefixed JSON frames over asyncio streams): a
router delivers to remote peers as well as local mailboxes, and a
client forwards its sends to the router.  Nothing above this module
assumes in-process delivery, only named endpoints, ordered envelopes,
and the two clock stamps.

Every transport carries a :attr:`InMemoryTransport.clock` mode, which
the orchestrator reads:

* ``"virtual"`` (the default) — ``now`` only moves when the orchestrator
  calls :meth:`InMemoryTransport.advance_to`, and ``delay`` is pure
  bookkeeping.  Determinism contract: for a fixed sequence of ``send``
  calls the envelope stream (``seq``, stamps, per-recipient FIFO order)
  is identical across runs — the transport introduces no randomness and
  reads no wall clock.
* ``"wall"`` — ``now`` is real elapsed time (``time.monotonic`` since
  construction), ``advance_to`` is a no-op (the clock advances itself),
  and a grace-window deadline becomes a genuine timeout.  This trades
  the virtual-clock determinism contract for real latency tolerance:
  a slow peer's submission is *actually* late (see
  ``docs/serving.md``).
"""

from __future__ import annotations

import asyncio
import math
import time

from repro.dist.messages import Envelope
from repro.errors import ConfigurationError, TransportError

__all__ = ["Mailbox", "InMemoryTransport", "CLOCK_MODES"]

CLOCK_MODES = ("virtual", "wall")
"""The two clock modes every transport can run under."""


class Mailbox:
    """One endpoint's ordered inbox of :class:`Envelope` deliveries."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._queue: asyncio.Queue[Envelope] = asyncio.Queue()

    def put(self, envelope: Envelope) -> None:
        """Deliver one envelope (never blocks; the queue is unbounded)."""
        self._queue.put_nowait(envelope)

    async def get(self) -> Envelope:
        """Wait for the next envelope in delivery order."""
        return await self._queue.get()

    def get_nowait(self) -> Envelope | None:
        """The next envelope if one is already delivered, else ``None``."""
        try:
            return self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None

    def __len__(self) -> int:
        return self._queue.qsize()

    def empty(self) -> bool:
        """Whether no delivery is currently pending."""
        return self._queue.empty()


class InMemoryTransport:
    """Deterministic in-process transport over ``asyncio`` queues.

    Messages are delivered to the recipient's mailbox immediately (the
    receiving coroutine wakes on its next ``await``); the ``delay``
    argument models network latency purely on the virtual clock, which is
    how a late bid becomes an *actually late message* without real-time
    sleeps — the orchestrator compares ``envelope.deliver_at`` against
    the round deadline.  A ``delay`` that is negative, NaN or infinite
    is refused with :class:`~repro.errors.ConfigurationError`: it would
    stamp an envelope that arrives before it was sent, or one that no
    deadline comparison can judge.

    With ``clock="wall"`` the same transport stamps envelopes with real
    elapsed time instead: ``deliver_at = monotonic-now + delay``, and
    :meth:`advance_to` becomes a no-op.  Useful for exercising wall-clock
    deadline semantics without sockets — an agent that really sleeps past
    the grace window is genuinely late.
    """

    def __init__(self, *, clock: str = "virtual") -> None:
        if clock not in CLOCK_MODES:
            raise ConfigurationError(
                f"clock must be one of {CLOCK_MODES}, got {clock!r}"
            )
        self.clock = clock
        # endpoint -> where its envelopes go: a local Mailbox, or (on a
        # TCP router) a remote peer connection with the same ``put``.
        self._inboxes: dict[str, Mailbox] = {}
        self._seq = 0
        self._now = 0.0
        self._t0 = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register(self, endpoint: str) -> Mailbox:
        """Create (and return) the mailbox for a new named endpoint."""
        if self._closed:
            raise TransportError("transport is closed")
        if not endpoint:
            raise ConfigurationError("endpoint name must be non-empty")
        if endpoint in self._inboxes:
            raise ConfigurationError(
                f"endpoint {endpoint!r} is already registered"
            )
        mailbox = Mailbox(endpoint)
        self._inboxes[endpoint] = mailbox
        return mailbox

    def endpoints(self) -> tuple[str, ...]:
        """The currently registered endpoint names."""
        return tuple(self._inboxes)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _check_send(self, delay: float) -> None:
        """Refuse a send on a closed transport or with an invalid delay."""
        if self._closed:
            raise TransportError("transport is closed")
        if not (math.isfinite(delay) and delay >= 0):
            raise ConfigurationError(
                f"delay must be finite and non-negative, got {delay}"
            )

    def send(
        self, recipient: str, message, *, sender: str = "", delay: float = 0.0
    ) -> Envelope:
        """Send ``message`` to ``recipient``; returns the stamped envelope.

        A ``seq`` is consumed only by an envelope that was delivered.
        """
        self._check_send(delay)
        inbox = self._inboxes.get(recipient)
        if inbox is None:
            raise TransportError(
                f"no endpoint {recipient!r} is registered on this transport"
            )
        now = self.now
        envelope = Envelope(
            seq=self._seq + 1,
            sender=sender,
            recipient=recipient,
            sent_at=now,
            deliver_at=now + delay,
            message=message,
        )
        inbox.put(envelope)
        self._seq = envelope.seq
        return envelope

    def broadcast(
        self, message, *, sender: str = "", exclude: tuple[str, ...] = ()
    ) -> list[Envelope]:
        """Send ``message`` to every registered endpoint (minus ``exclude``).

        An endpoint that cannot take delivery (a TCP peer that already
        vanished) is skipped rather than raised on — a broadcast (e.g.
        shutdown) must reach the healthy fleet; the disconnect was
        counted when it happened.
        """
        if self._closed:
            raise TransportError("transport is closed")
        envelopes = []
        for endpoint in self.endpoints():
            if endpoint in exclude or endpoint == sender:
                continue
            try:
                envelopes.append(self.send(endpoint, message, sender=sender))
            except TransportError:
                continue
        return envelopes

    # ------------------------------------------------------------------
    # the clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The transport's current time on its clock."""
        if self.clock == "wall":
            return time.monotonic() - self._t0
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the virtual clock forward to ``when`` (never backward)."""
        if self.clock == "wall":
            return  # the wall clock advances itself
        if when < self._now:
            raise ConfigurationError(
                f"cannot move the virtual clock backward "
                f"({when} < {self._now})"
            )
        self._now = when

    def close(self) -> None:
        """Shut the transport down; subsequent sends raise."""
        self._closed = True
