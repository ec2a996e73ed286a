"""Transport-level behaviour: ordering, clocks, endpoints, wire format."""

import asyncio
import math

import pytest

from repro.core.bids import Bid
from repro.dist.messages import (
    MESSAGE_SCHEMA_VERSION,
    BidSubmission,
    OutcomeNotice,
    RoundOpen,
    Shutdown,
    message_from_dict,
    message_to_dict,
)
from repro.dist.tcp import TcpTransport
from repro.dist.transport import InMemoryTransport
from repro.errors import ConfigurationError, TransportError

pytestmark = pytest.mark.dist


class TestInMemoryTransport:
    """The transport contract, checked on the in-process transport.

    :class:`TestTcpRouterTransport` reruns every test on a listening
    TCP router's local mailboxes: one contract for both transports.
    """

    @pytest.fixture
    def new_transport(self):
        return InMemoryTransport

    def test_delivery_preserves_send_order(self, new_transport):
        transport = new_transport()
        inbox = transport.register("agent")
        for i in range(5):
            transport.send("agent", Shutdown(reason=str(i)), sender="x")

        async def drain():
            return [(await inbox.get()) for _ in range(5)]

        envelopes = asyncio.run(drain())
        assert [e.message.reason for e in envelopes] == list("01234")
        assert [e.seq for e in envelopes] == sorted(e.seq for e in envelopes)

    def test_sequence_is_transport_wide_and_monotone(self, new_transport):
        transport = new_transport()
        transport.register("a")
        transport.register("b")
        seqs = [
            transport.send(recipient, Shutdown(), sender="x").seq
            for recipient in ("a", "b", "a", "b")
        ]
        assert seqs == [1, 2, 3, 4]

    def test_identical_send_sequences_stamp_identically(self, new_transport):
        def stamped():
            transport = new_transport()
            transport.register("a")
            out = []
            for i in range(4):
                transport.advance_to(float(i))
                env = transport.send("a", Shutdown(), sender="x", delay=0.5)
                out.append((env.seq, env.sent_at, env.deliver_at))
            return out

        assert stamped() == stamped()

    def test_virtual_delay_stamps_without_sleeping(self, new_transport):
        transport = new_transport()
        inbox = transport.register("agent")
        transport.advance_to(10.0)
        envelope = transport.send("agent", Shutdown(), sender="x", delay=2.5)
        assert envelope.sent_at == 10.0
        assert envelope.deliver_at == 12.5
        assert envelope.delay == 2.5
        # delivery is immediate on the wall clock: already in the mailbox
        assert len(inbox) == 1

    def test_unknown_endpoint_raises_transport_error(self, new_transport):
        transport = new_transport()
        with pytest.raises(TransportError, match="ghost"):
            transport.send("ghost", Shutdown(), sender="x")

    def test_closed_transport_rejects_sends_and_registers(self, new_transport):
        transport = new_transport()
        transport.register("agent")
        transport.close()
        with pytest.raises(TransportError):
            transport.send("agent", Shutdown(), sender="x")
        with pytest.raises(TransportError):
            transport.register("other")
        with pytest.raises(TransportError):
            transport.broadcast(Shutdown(), sender="x")

    def test_duplicate_endpoint_rejected(self, new_transport):
        transport = new_transport()
        transport.register("agent")
        with pytest.raises(ConfigurationError, match="already registered"):
            transport.register("agent")

    def test_clock_never_moves_backward(self, new_transport):
        transport = new_transport()
        transport.advance_to(5.0)
        with pytest.raises(ConfigurationError, match="backward"):
            transport.advance_to(4.0)

    def test_negative_delay_rejected(self, new_transport):
        transport = new_transport()
        transport.register("agent")
        with pytest.raises(ConfigurationError, match="delay"):
            transport.send("agent", Shutdown(), sender="x", delay=-1.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, new_transport, delay):
        # A NaN deliver_at compares False against every deadline, so a
        # late bid would pass as on time; inf never arrives at all.
        transport = new_transport()
        inbox = transport.register("agent")
        with pytest.raises(ConfigurationError, match="finite"):
            transport.send("agent", Shutdown(), sender="x", delay=delay)
        assert len(inbox) == 0
        # a refused send consumes no sequence number
        assert transport.send("agent", Shutdown(), sender="x").seq == 1

    def test_broadcast_reaches_everyone_but_sender_and_excluded(
        self, new_transport
    ):
        transport = new_transport()
        boxes = {name: transport.register(name) for name in ("a", "b", "c")}
        transport.broadcast(Shutdown(), sender="a", exclude=("b",))
        assert len(boxes["a"]) == 0
        assert len(boxes["b"]) == 0
        assert len(boxes["c"]) == 1


class TestTcpRouterTransport(TestInMemoryTransport):
    """The same contract on a listening TCP router's local mailboxes."""

    @pytest.fixture
    def new_transport(self):
        loop = asyncio.new_event_loop()
        routers = []

        def listening():
            router = TcpTransport()
            loop.run_until_complete(router.listen("127.0.0.1", 0))
            routers.append(router)
            return router

        yield listening
        for router in routers:
            router.close()
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()


class TestWireFormat:
    def test_every_message_round_trips_through_dicts(self):
        bid = Bid(seller=3, index=0, covered=frozenset({1, 2}), price=20.0,
                  true_cost=20.0)
        messages = [
            RoundOpen(round_index=2, seller_id=3, local_buyers=(1, 2),
                      max_units=4, opened_at=16.0, deadline=17.0),
            BidSubmission(round_index=2, seller_id=3, bids=(bid,)),
            OutcomeNotice(round_index=2, winners=((3, 0, 25.0),),
                          transfers=((3, (1, 2)),), social_cost=20.0),
            Shutdown(reason="done"),
        ]
        for message in messages:
            payload = message_to_dict(message)
            assert payload["schema_version"] == MESSAGE_SCHEMA_VERSION
            assert message_from_dict(payload) == message

    def test_unknown_kind_and_bad_version_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            message_from_dict({"kind": "nonsense",
                               "schema_version": MESSAGE_SCHEMA_VERSION})
        payload = message_to_dict(Shutdown())
        payload["schema_version"] = 999
        with pytest.raises(ConfigurationError, match="version"):
            message_from_dict(payload)

    def test_submission_rejects_foreign_bids(self):
        foreign = Bid(seller=9, index=0, covered=frozenset({1}), price=5.0,
                      true_cost=5.0)
        with pytest.raises(ConfigurationError, match="seller 9"):
            BidSubmission(round_index=0, seller_id=3, bids=(foreign,))

    def test_outcome_notice_helpers(self):
        notice = OutcomeNotice(
            round_index=0,
            winners=((3, 0, 25.0), (3, 1, 5.0), (4, 0, 7.0)),
            transfers=((3, (1, 2)), (4, (1,))),
        )
        assert notice.payment_to(3) == pytest.approx(30.0)
        assert notice.payment_to(99) == 0
        assert notice.units_to(1) == 2
        assert notice.units_to(2) == 1
