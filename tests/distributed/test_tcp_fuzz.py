"""Chaos tests for the TCP router's frame handling.

Every frame a peer can put on the wire — a ``send`` frame carrying
arbitrary JSON, or a raw frame that is truncated, oversized or not a
JSON object — must take the router's one reject path: the rejection is
counted in ``transport.frames_rejected``, asyncio logs no unhandled
exception, and a second, well-formed peer can still register and
exchange an envelope afterwards.  Malformed frames *from* the router
must end a client's receive loop the same orderly way.
"""

import asyncio
import json
import logging
import math
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.dist.messages import Shutdown, message_from_dict, message_to_dict
from repro.dist.tcp import TcpTransport, read_frame, write_frame
from repro.errors import ConfigurationError, TransportError
from repro.obs.runtime import observing
from repro.obs.tracer import read_trace

pytestmark = pytest.mark.dist

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

MAX_FRAME = 4096
"""A small frame limit, so that oversized frames stay cheap to send."""

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**400)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
"""Arbitrary JSON, NaN, infinities and floats beyond 1e308 included."""


def _deliverable(frame: dict) -> bool:
    """Whether the router would accept ``frame`` as a valid send."""
    try:
        message_from_dict(frame["message"])
        delay = float(frame.get("delay", 0.0))
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError):
        return False
    return (
        frame.get("recipient") == "orchestrator"
        and math.isfinite(delay)
        and delay >= 0
    )


def _unhandled(caplog) -> list[str]:
    return [
        record.getMessage()
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


async def _answer(reader: asyncio.StreamReader) -> dict | None:
    """The router's answer to a bad frame: an error frame, or None at EOF.

    An oversized frame's answer is best-effort: the unread body left in
    the router's socket buffer can turn its close into a reset.
    """
    try:
        return await asyncio.wait_for(read_frame(reader), timeout=5)
    except (TransportError, asyncio.IncompleteReadError, ConnectionError):
        return None


async def _well_formed_peer_exchanges(router: TcpTransport, inbox) -> None:
    """A fresh client registers and swaps one envelope each way."""
    client = TcpTransport()
    await client.dial(*router.address)
    box = client.register("seller-ok")
    await client.wait_registered("seller-ok")
    sent = router.send("seller-ok", Shutdown(reason="ping"), sender="orchestrator")
    got = await asyncio.wait_for(box.get(), timeout=5)
    assert (got.seq, got.message) == (sent.seq, sent.message)
    client.send("orchestrator", Shutdown(reason="pong"), sender="seller-ok")
    back = await asyncio.wait_for(inbox.get(), timeout=5)
    assert back.message == Shutdown(reason="pong")
    assert back.seq == sent.seq + 1
    client.close()


def _bombard(raw: bytes, *, half_close: bool = False) -> dict | None:
    """Send ``raw`` bytes to a fresh router, then check it still serves.

    Returns the router's answer to the bad peer (see :func:`_answer`).
    """

    async def scenario():
        router = TcpTransport(max_frame_bytes=MAX_FRAME)
        inbox = router.register("orchestrator")
        await router.listen("127.0.0.1", 0)
        try:
            reader, writer = await asyncio.open_connection(*router.address)
            writer.write(raw)
            if half_close:
                writer.write_eof()
            answer = await _answer(reader)
            await _well_formed_peer_exchanges(router, inbox)
            writer.close()
            return answer
        finally:
            router.close()

    return asyncio.run(scenario())


def _frame(payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return struct.pack(">I", len(body)) + body


def _assert_rejected_once(metrics, caplog, answer) -> None:
    assert metrics.counter("transport.frames_rejected").value == 1
    assert not _unhandled(caplog)
    if answer is not None:
        assert answer["op"] == "error"


class TestRouterFuzz:
    @FUZZ
    @given(
        recipient=json_values,
        delay=json_values,
        message=json_values,
        omit=st.sets(st.sampled_from(["recipient", "delay", "message"])),
    )
    def test_send_frames_with_arbitrary_json(
        self, caplog, recipient, delay, message, omit
    ):
        frame = {"op": "send", "recipient": recipient, "delay": delay,
                 "message": message, "sender": "fuzz"}
        for key in omit:
            del frame[key]
        assume(not _deliverable(frame))
        caplog.clear()
        with observing() as metrics:
            answer = _bombard(_frame(frame))
            _assert_rejected_once(metrics, caplog, answer)

    @FUZZ
    @given(length=st.integers(min_value=1, max_value=MAX_FRAME),
           data=st.data())
    def test_truncated_frames(self, caplog, length, data):
        body = b"x" * length
        raw = (struct.pack(">I", length) + body)[
            : data.draw(st.integers(min_value=1, max_value=length + 3))
        ]
        caplog.clear()
        with observing() as metrics:
            answer = _bombard(raw, half_close=True)
            _assert_rejected_once(metrics, caplog, answer)
        if answer is not None:
            assert "truncated" in answer["error"]

    @FUZZ
    @given(length=st.integers(min_value=MAX_FRAME + 1, max_value=2**32 - 1),
           body=st.binary(max_size=64))
    def test_oversized_frames(self, caplog, length, body):
        caplog.clear()
        with observing() as metrics:
            answer = _bombard(struct.pack(">I", length) + body)
            _assert_rejected_once(metrics, caplog, answer)
        if answer is not None:
            assert "exceeds" in answer["error"]

    @FUZZ
    @given(body=st.binary(max_size=256)
           | json_values.map(lambda value: json.dumps(value).encode()))
    def test_frames_that_are_not_json_objects_with_an_op(self, caplog, body):
        try:
            decoded = json.loads(body.decode())
        except ValueError:
            decoded = None
        assume(not (isinstance(decoded, dict) and "op" in decoded))
        caplog.clear()
        with observing() as metrics:
            answer = _bombard(struct.pack(">I", len(body)) + body)
            _assert_rejected_once(metrics, caplog, answer)
        assert answer is not None and "malformed" in answer["error"]

    def test_json_nested_past_the_recursion_limit_is_rejected(self, caplog):
        body = b"[" * 2000 + b"]" * 2000  # within MAX_FRAME
        with observing() as metrics:
            answer = _bombard(struct.pack(">I", len(body)) + body)
            _assert_rejected_once(metrics, caplog, answer)
        assert answer is not None and "malformed" in answer["error"]


VALID_MESSAGE = message_to_dict(Shutdown(reason="x"))


class TestRouterSendRejection:
    @pytest.mark.parametrize(
        "frame, reason",
        [
            ({"recipient": "orchestrator", "delay": -5.0}, "delay"),
            ({"recipient": "orchestrator", "delay": math.nan}, "delay"),
            ({"recipient": "orchestrator", "delay": math.inf}, "delay"),
            ({"recipient": "orchestrator", "delay": -math.inf}, "delay"),
            ({"recipient": "orchestrator", "delay": "soon"}, "malformed"),
            ({"recipient": "orchestrator", "message": 5}, "malformed"),
            ({"recipient": "orchestrator", "message": ["x"]}, "malformed"),
            ({"recipient": ["orchestrator"]}, "malformed"),
            ({"recipient": {"a": 1}}, "malformed"),
        ],
        ids=["negative", "nan", "inf", "-inf", "text-delay", "int-message",
             "list-message", "list-recipient", "dict-recipient"],
    )
    def test_bad_send_frames_get_a_counted_error_and_the_peer_is_dropped(
        self, caplog, frame, reason
    ):
        payload = {"op": "send", "sender": "bad", "message": VALID_MESSAGE,
                   **frame}

        async def scenario():
            router = TcpTransport()
            inbox = router.register("orchestrator")
            await router.listen("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(*router.address)
            writer.write(_frame(payload))
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            eof = await asyncio.wait_for(reader.read(), timeout=5)
            delivered = len(inbox)
            writer.close()
            router.close()
            return answer, eof, delivered

        with observing() as metrics:
            answer, eof, delivered = asyncio.run(scenario())
            assert metrics.counter("transport.frames_rejected").value == 1
        assert answer["op"] == "error" and reason in answer["error"]
        assert eof == b""  # the offending peer was dropped
        assert delivered == 0  # nothing reached the orchestrator
        assert not _unhandled(caplog)

    def test_unknown_recipient_is_answered_but_the_peer_stays(self):
        async def scenario():
            router = TcpTransport()
            inbox = router.register("orchestrator")
            await router.listen("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(*router.address)
            write_frame(writer, {"op": "send", "recipient": "ghost",
                                 "message": VALID_MESSAGE})
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            write_frame(writer, {"op": "send", "recipient": "orchestrator",
                                 "sender": "peer", "message": VALID_MESSAGE})
            envelope = await asyncio.wait_for(inbox.get(), timeout=5)
            writer.close()
            router.close()
            return answer, envelope

        with observing() as metrics:
            answer, envelope = asyncio.run(scenario())
            assert metrics.counter("transport.frames_rejected").value == 1
        assert "ghost" in answer["error"]
        assert envelope.sender == "peer" and envelope.seq == 1

    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_client_send_refuses_the_delay_locally(self, delay):
        async def scenario():
            router = TcpTransport()
            inbox = router.register("orchestrator")
            await router.listen("127.0.0.1", 0)
            client = TcpTransport()
            await client.dial(*router.address)
            try:
                with pytest.raises(ConfigurationError, match="delay"):
                    client.send("orchestrator", Shutdown(), sender="c",
                                delay=delay)
                client.send("orchestrator", Shutdown(), sender="c")
                return await asyncio.wait_for(inbox.get(), timeout=5)
            finally:
                client.close()
                router.close()

        envelope = asyncio.run(scenario())
        assert envelope.seq == 1 and envelope.delay == 0.0


class TestClientRejection:
    @pytest.mark.parametrize(
        "frame",
        [
            {"op": "deliver"},
            {"op": "deliver", "envelope": "nope"},
            {"op": "deliver", "envelope": {"seq": 1}},
            {"op": "deliver", "envelope": {
                "seq": "x", "sender": "", "recipient": "seller-1",
                "sent_at": 0.0, "deliver_at": 0.0, "message": VALID_MESSAGE}},
            {"op": "clock", "now": "later"},
            {"op": "clock", "now": [1.0]},
        ],
        ids=["no-envelope", "text-envelope", "partial-envelope",
             "bad-seq", "text-clock", "list-clock"],
    )
    def test_malformed_router_frame_ends_the_client_loop(
        self, tmp_path, caplog, frame
    ):
        trace = tmp_path / "trace.jsonl"

        async def scenario():
            served = asyncio.Event()

            async def fake_router(reader, writer):
                await read_frame(reader)  # the client's registration
                write_frame(writer, {"op": "registered",
                                     "endpoint": "seller-1"})
                write_frame(writer, frame)
                await reader.read()  # hold the line open until the client goes
                writer.close()
                served.set()

            server = await asyncio.start_server(fake_router, "127.0.0.1", 0)
            client = TcpTransport()
            await client.dial(*server.sockets[0].getsockname()[:2])
            box = client.register("seller-1")
            await client.wait_registered("seller-1")
            envelope = await asyncio.wait_for(box.get(), timeout=5)
            # the receive loop ended on its own, without an exception
            await asyncio.wait_for(client._reader_task, timeout=5)
            client.close()
            await asyncio.wait_for(served.wait(), timeout=5)
            server.close()
            return envelope

        with observing(trace=trace) as metrics:
            envelope = asyncio.run(scenario())
            assert metrics.counter("transport.frames_rejected").value == 1
            assert metrics.counter("transport.disconnects").value == 1
        assert envelope.message == Shutdown(reason="transport-disconnected")
        rejected = [
            record for record in read_trace(trace)
            if record.get("name") == "transport.frame_rejected"
        ]
        assert len(rejected) == 1
        assert frame["op"] in rejected[0]["fields"]["error"]
        assert not _unhandled(caplog)
