"""Independent auction agents and the deterministic RNG-stream scheme.

In the distributed platform a seller is no longer an object the loop
calls into — it is a coroutine (:class:`SellerAgent`) that owns its
private cost, its private randomness, and its own mailbox, and interacts
with the platform purely through messages.  :class:`AgentHandle` is the
thin client every agent (including hand-written ones in tests or
notebooks) uses to receive messages and submit bids.

Determinism contract
--------------------
The synchronous :class:`~repro.edge.platform.EdgePlatform` draws every
seller's bid randomness from the *platform's* generator, in seller-id
order — an ordering a set of independent agents cannot reproduce.  The
distributed platform therefore gives each seller a **private stream**
derived from the scenario seed and its own id (:func:`seller_stream`):
the draws no longer depend on who bid before, so any arrival order yields
the same bids.  :class:`AgentStreamPolicy` is the synchronous mirror — a
:class:`~repro.edge.platform.BiddingPolicy` that replays exactly those
per-seller streams inside the classic loop — which is what makes a
seeded async run bit-identical to its synchronous replay
(:func:`repro.dist.replay_scenario`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.bids import Bid
from repro.dist.messages import (
    BidSubmission,
    Envelope,
    OutcomeNotice,
    RoundOpen,
    Shutdown,
)
from repro.dist.transport import InMemoryTransport, Mailbox
from repro.edge.platform import BiddingPolicy, PlatformConfig, TruthfulCostPolicy

__all__ = [
    "ORCHESTRATOR_ENDPOINT",
    "seller_endpoint",
    "seller_stream",
    "default_policy_factory",
    "AgentStreamPolicy",
    "AgentHandle",
    "SellerAgent",
    "BuyerAgent",
]

ORCHESTRATOR_ENDPOINT = "orchestrator"
"""The well-known endpoint name the platform listens on."""

_STREAM_TAG = 0xD157
"""Domain-separation tag so seller streams never collide with the
platform's simulation generator for the same seed."""


def seller_endpoint(seller_id: int) -> str:
    """Canonical endpoint name for a seller agent."""
    return f"seller-{seller_id}"


def seller_stream(seed: int, seller_id: int) -> np.random.Generator:
    """The private bid-randomness stream of one seller.

    Seeded from ``(tag, scenario seed, seller id)`` via NumPy's
    ``SeedSequence`` spawning, so distinct sellers get independent
    streams and the same ``(seed, seller_id)`` always reproduces the
    same draws — on any host, in any arrival order.
    """
    return np.random.default_rng([_STREAM_TAG, int(seed), int(seller_id)])


def default_policy_factory(
    config: PlatformConfig | None = None,
) -> Callable[[], BiddingPolicy]:
    """A factory producing one fresh truthful policy per seller agent.

    Every agent needs its *own* policy instance (the policy caches the
    seller's private cost); the factory captures the platform config so
    agents price over the same ``unit_cost_range`` the synchronous
    default would.
    """
    cfg = config or PlatformConfig()
    return lambda: TruthfulCostPolicy(
        bids_per_seller=cfg.bids_per_seller,
        unit_cost_range=cfg.unit_cost_range,
    )


class AgentStreamPolicy(BiddingPolicy):
    """Synchronous replay of the distributed agents' private RNG streams.

    Plugged into :class:`~repro.edge.platform.EdgePlatform` as its
    ``bidding_policy``, this produces — seller by seller — exactly the
    bids the :class:`SellerAgent` fleet produces over a transport for the
    same ``seed``: one policy instance and one :func:`seller_stream` per
    seller, with the platform's own generator deliberately ignored so it
    is consumed identically (i.e. only by the simulation) in both modes.
    """

    def __init__(
        self,
        seed: int,
        policy_factory: Callable[[], BiddingPolicy] | None = None,
    ) -> None:
        self.seed = int(seed)
        self._factory = policy_factory or default_policy_factory()
        self._policies: dict[int, BiddingPolicy] = {}
        self._streams: dict[int, np.random.Generator] = {}

    def _for_seller(
        self, seller_id: int
    ) -> tuple[BiddingPolicy, np.random.Generator]:
        if seller_id not in self._policies:
            self._policies[seller_id] = self._factory()
            self._streams[seller_id] = seller_stream(self.seed, seller_id)
        return self._policies[seller_id], self._streams[seller_id]

    def make_bids(
        self,
        seller_id: int,
        local_buyers: Sequence[int],
        max_units: int,
        rng: np.random.Generator,
    ) -> list[Bid]:
        policy, stream = self._for_seller(seller_id)
        # ``rng`` (the platform generator) is intentionally unused: the
        # whole point is that bid randomness comes from private streams.
        return policy.make_bids(seller_id, local_buyers, max_units, stream)


class AgentHandle:
    """A connected agent's client handle onto the auction service.

    Wraps the agent's mailbox and the transport so agent code never
    touches either directly: ``await handle.next_message()`` to receive,
    :meth:`submit_bid` to answer a :class:`RoundOpen`.  Handles are
    created by :meth:`repro.dist.AuctionService.connect` (or directly
    from a transport when wiring things by hand in tests).
    """

    def __init__(
        self,
        transport: InMemoryTransport,
        endpoint: str,
        *,
        seller_id: int | None = None,
        mailbox: Mailbox | None = None,
    ) -> None:
        self.transport = transport
        self.endpoint = endpoint
        self.seller_id = seller_id
        self.mailbox = mailbox if mailbox is not None else transport.register(endpoint)

    async def next_message(self) -> Envelope:
        """Wait for the next envelope addressed to this agent."""
        return await self.mailbox.get()

    def submit_bid(
        self,
        round_open: RoundOpen,
        bids: Sequence[Bid] = (),
        *,
        delay: float = 0.0,
    ) -> Envelope:
        """Answer a round announcement with this agent's bids.

        An empty ``bids`` sequence is an explicit decline (it releases
        the orchestrator's round barrier immediately instead of running
        out the wall-clock guard).  ``delay`` is virtual-clock latency:
        a submission whose delivery time lands past the round's
        ``deadline`` is genuinely late and will be rejected.
        """
        seller_id = (
            self.seller_id if self.seller_id is not None else round_open.seller_id
        )
        submission = BidSubmission(
            round_index=round_open.round_index,
            seller_id=seller_id,
            bids=tuple(bids),
        )
        return self.transport.send(
            ORCHESTRATOR_ENDPOINT,
            submission,
            sender=self.endpoint,
            delay=delay,
        )


class SellerAgent:
    """An autonomous seller: private cost, private randomness, own inbox.

    The agent's :meth:`run` coroutine loops on its mailbox — bidding on
    every :class:`RoundOpen`, recording its earnings from every
    :class:`OutcomeNotice`, exiting on :class:`Shutdown`.  A non-zero
    ``submission_delay`` models a slow seller on the virtual clock
    (useful to exercise the grace window; it breaks sync/async parity by
    design, since the synchronous loop has no notion of lateness).
    """

    def __init__(
        self,
        handle: AgentHandle,
        *,
        policy: BiddingPolicy,
        rng: np.random.Generator,
        submission_delay: float = 0.0,
    ) -> None:
        if handle.seller_id is None:
            raise ValueError("a SellerAgent's handle must carry its seller_id")
        self.handle = handle
        self.seller_id = handle.seller_id
        self.policy = policy
        self.rng = rng
        self.submission_delay = submission_delay
        self.earnings: dict[int, float] = {}
        self.rounds_bid = 0

    async def run(self) -> None:
        """Serve rounds until the platform says shutdown."""
        while True:
            envelope = await self.handle.next_message()
            message = envelope.message
            if isinstance(message, Shutdown):
                return
            if isinstance(message, RoundOpen):
                bids = self.policy.make_bids(
                    self.seller_id,
                    list(message.local_buyers),
                    message.max_units,
                    self.rng,
                )
                self.handle.submit_bid(
                    message, bids, delay=self.submission_delay
                )
                self.rounds_bid += 1
            elif isinstance(message, OutcomeNotice):
                earned = message.payment_to(self.seller_id)
                if earned:
                    self.earnings[message.round_index] = earned


class BuyerAgent:
    """A passive buyer observer: tallies the units it was granted.

    Buyers do not act in the paper's mechanism (the platform bids on
    their behalf from estimated demand), so the agent only watches
    :class:`OutcomeNotice` broadcasts — but it is a real endpoint, which
    is what a future buyer-side strategy would extend.
    """

    def __init__(self, handle: AgentHandle, buyer_id: int) -> None:
        self.handle = handle
        self.buyer_id = buyer_id
        self.units_received: dict[int, int] = {}

    async def run(self) -> None:
        """Observe outcomes until the platform says shutdown."""
        while True:
            envelope = await self.handle.next_message()
            message = envelope.message
            if isinstance(message, Shutdown):
                return
            if isinstance(message, OutcomeNotice):
                units = message.units_to(self.buyer_id)
                if units:
                    self.units_received[message.round_index] = units
