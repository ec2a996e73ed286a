"""TCP transport: framing, handshake, error paths, wall-clock deadlines."""

import asyncio
import json
import struct
import time

import pytest

from repro.dist import (
    AuctionService,
    DistScenario,
    InMemoryTransport,
    RoundOrchestrator,
    TcpTransport,
    agent_worker,
    replay_scenario,
    seller_endpoint,
)
from repro.dist.messages import BidSubmission, RoundOpen, Shutdown
from repro.dist.tcp import read_frame, write_frame
from repro.errors import ConfigurationError, TransportError
from repro.obs.runtime import observing
from repro.obs.tracer import read_trace

pytestmark = pytest.mark.dist

SCENARIO = DistScenario(seed=5, horizon_rounds=4)


def _events(records, name):
    return [
        r for r in records if r.get("kind") == "event" and r.get("name") == name
    ]


async def _router() -> TcpTransport:
    transport = TcpTransport()
    await transport.listen("127.0.0.1", 0)
    return transport


async def _client(router: TcpTransport) -> TcpTransport:
    client = TcpTransport()
    await client.dial(*router.address)
    return client


class TestFraming:
    def test_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader()
            frame = {"op": "register", "endpoint": "seller-1"}

            class _Writer:
                def write(self, data):
                    reader.feed_data(data)

            write_frame(_Writer(), frame)
            return await read_frame(reader)

        assert asyncio.run(scenario()) == {
            "op": "register",
            "endpoint": "seller-1",
        }

    def test_oversized_frame_is_rejected_on_read(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 1 << 30))
            await read_frame(reader, max_frame_bytes=1024)

        with pytest.raises(TransportError, match="exceeds"):
            asyncio.run(scenario())

    def test_oversized_frame_is_rejected_on_write(self):
        with pytest.raises(TransportError, match="exceeds"):
            write_frame(None, {"op": "x", "pad": "y" * 64}, max_frame_bytes=16)

    def test_malformed_json_is_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            body = b"this is not json"
            reader.feed_data(struct.pack(">I", len(body)) + body)
            await read_frame(reader)

        with pytest.raises(TransportError, match="malformed"):
            asyncio.run(scenario())

    def test_frame_without_op_is_rejected(self):
        async def scenario():
            reader = asyncio.StreamReader()
            body = json.dumps({"no_op": 1}).encode()
            reader.feed_data(struct.pack(">I", len(body)) + body)
            await read_frame(reader)

        with pytest.raises(TransportError, match="'op'"):
            asyncio.run(scenario())


class TestHandshakeAndRouting:
    def test_register_send_round_trip_preserves_order(self):
        async def scenario():
            router = await _router()
            orchestrator_box = router.register("orchestrator")
            client = await _client(router)
            client.register("seller-1")
            await client.wait_registered("seller-1")
            for index in range(3):
                client.send(
                    "orchestrator",
                    BidSubmission(round_index=index, seller_id=1),
                    sender="seller-1",
                )
            received = [await orchestrator_box.get() for _ in range(3)]
            client.close()
            router.close()
            return received

        received = asyncio.run(scenario())
        # router-stamped seq is monotone and per-recipient order is FIFO
        assert [e.message.round_index for e in received] == [0, 1, 2]
        assert [e.seq for e in received] == sorted(e.seq for e in received)
        assert all(e.sender == "seller-1" for e in received)

    def test_router_delivers_to_remote_endpoint(self):
        async def scenario():
            router = await _router()
            router.register("orchestrator")
            client = await _client(router)
            box = client.register("seller-2")
            await client.wait_registered("seller-2")
            sent = router.send(
                "seller-2",
                RoundOpen(
                    round_index=0,
                    seller_id=2,
                    local_buyers=(1,),
                    max_units=3,
                    opened_at=0.0,
                    deadline=1.0,
                ),
                sender="orchestrator",
            )
            got = await asyncio.wait_for(box.get(), timeout=5)
            client.close()
            router.close()
            return sent, got

        sent, got = asyncio.run(scenario())
        # the client reconstructs exactly the router's stamped envelope
        assert got.seq == sent.seq
        assert got.message == sent.message
        assert got.deliver_at == sent.deliver_at

    def test_duplicate_registration_is_rejected(self):
        async def scenario():
            router = await _router()
            first = await _client(router)
            first.register("seller-1")
            await first.wait_registered("seller-1")
            second = await _client(router)
            second.register("seller-1")
            try:
                await second.wait_registered("seller-1")
            finally:
                first.close()
                second.close()
                router.close()

        with pytest.raises(TransportError, match="already registered"):
            asyncio.run(scenario())

    def test_local_duplicate_registration_is_rejected(self):
        async def scenario():
            router = await _router()
            router.register("orchestrator")
            try:
                router.register("orchestrator")
            finally:
                router.close()

        with pytest.raises(ConfigurationError, match="already registered"):
            asyncio.run(scenario())

    def test_send_to_unknown_endpoint_raises(self):
        async def scenario():
            router = await _router()
            try:
                router.send("nobody", Shutdown(), sender="orchestrator")
            finally:
                router.close()

        with pytest.raises(TransportError, match="nobody"):
            asyncio.run(scenario())

    def test_wait_for_endpoints_times_out_with_missing_names(self):
        async def scenario():
            router = await _router()
            try:
                await router.wait_for_endpoints(
                    ["seller-9"], timeout=0.05
                )
            finally:
                router.close()

        with pytest.raises(TransportError, match="seller-9"):
            asyncio.run(scenario())


class TestFrameRejection:
    def test_malformed_frame_drops_the_connection(self):
        async def scenario():
            router = await _router()
            reader, writer = await asyncio.open_connection(*router.address)
            writer.write(struct.pack(">I", 12) + b"not json!!!!")
            # the router answers an error frame, then closes on us
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            eof = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            router.close()
            return answer, eof

        with observing() as metrics:
            answer, eof = asyncio.run(scenario())
            assert metrics.counter("transport.frames_rejected").value == 1
        assert answer["op"] == "error"
        assert "malformed" in answer["error"]
        assert eof == b""

    def test_oversized_frame_drops_the_connection(self):
        async def scenario():
            router = TcpTransport(max_frame_bytes=64)
            await router.listen("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(*router.address)
            body = json.dumps({"op": "register", "endpoint": "x" * 256})
            writer.write(
                struct.pack(">I", len(body)) + body.encode()
            )
            # The error answer is best-effort: the unread body still in
            # the router's socket buffer can turn its close into a reset
            # that eats the frame.  The contract is only that the
            # connection dies (and the rejection is counted).
            try:
                answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            except (
                TransportError,
                asyncio.IncompleteReadError,
                ConnectionError,
            ):
                answer = None
            writer.close()
            router.close()
            return answer

        with observing() as metrics:
            answer = asyncio.run(scenario())
            assert metrics.counter("transport.frames_rejected").value == 1
        if answer is not None:
            assert "exceeds" in answer["error"]

    def test_unknown_op_drops_the_connection(self):
        async def scenario():
            router = await _router()
            reader, writer = await asyncio.open_connection(*router.address)
            write_frame(writer, {"op": "teleport"})
            answer = await asyncio.wait_for(read_frame(reader), timeout=5)
            writer.close()
            router.close()
            return answer

        with observing() as metrics:
            answer = asyncio.run(scenario())
            assert metrics.counter("transport.frames_rejected").value == 1
        assert "teleport" in answer["error"]


class TestDisconnects:
    def test_client_disconnect_synthesizes_shutdown(self):
        async def scenario():
            router = await _router()
            router.register("orchestrator")
            client = await _client(router)
            box = client.register("seller-1")
            await client.wait_registered("seller-1")
            router.close()
            envelope = await asyncio.wait_for(box.get(), timeout=5)
            with pytest.raises(TransportError):
                client.send("orchestrator", Shutdown(), sender="seller-1")
            client.close()
            return envelope

        envelope = asyncio.run(scenario())
        assert isinstance(envelope.message, Shutdown)
        assert envelope.message.reason == "transport-disconnected"

    def test_peer_disconnect_mid_round_still_clears(self, tmp_path):
        """A seller whose process dies mid-session doesn't wedge the round."""
        trace = tmp_path / "trace.jsonl"

        async def scenario():
            router = TcpTransport()
            platform = SCENARIO.build_platform()
            orchestrator = RoundOrchestrator(
                platform, router, grace_window=1.0, wall_timeout=0.5
            )
            await router.listen("127.0.0.1", 0)
            client = await _client(router)
            client.register(seller_endpoint(3))
            await client.wait_registered(seller_endpoint(3))
            orchestrator.attach_seller(3, seller_endpoint(3))
            # the agent's process "dies" before the round opens
            client.close()
            await asyncio.sleep(0.1)  # let the router see the EOF
            report = await orchestrator.run_round()
            router.close()
            return report

        with observing(trace=trace) as metrics:
            report = asyncio.run(scenario())
            assert report.round_index == 0
            disconnected = metrics.counter("dist.sellers_disconnected").value
            timed_out = metrics.counter("dist.submissions_timeout").value
            # either the router already saw the EOF (send refused) or the
            # wall guard caught the silence — both account for seller 3
            assert disconnected + timed_out >= 1
        records = read_trace(trace)
        noted = _events(records, "dist.seller_disconnected") + _events(
            records, "dist.bid_timeout"
        )
        assert {e["fields"]["seller"] for e in noted} == {3}


class TestWallClock:
    def test_wall_clock_transport_advances_itself(self):
        transport = InMemoryTransport(clock="wall")
        before = transport.now
        time.sleep(0.01)
        assert transport.now > before
        transport.advance_to(0.0)  # a no-op, never "backward"

    def test_invalid_clock_mode_is_rejected(self):
        with pytest.raises(ConfigurationError, match="clock"):
            InMemoryTransport(clock="lunar")
        with pytest.raises(ConfigurationError, match="clock"):
            TcpTransport(clock="lunar")

    def test_service_refuses_clock_contradicting_its_transport(self):
        with pytest.raises(ConfigurationError, match="does not match"):
            AuctionService(
                SCENARIO, transport=InMemoryTransport(), clock="wall"
            )

    def test_delayed_submission_is_late_by_wall_clock(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        delays = {sid: 30.0 for sid in SCENARIO.seller_ids()}
        with observing(trace=trace) as metrics:
            service = AuctionService(
                SCENARIO,
                grace_window=1.0,
                seller_delays=delays,
                transport=InMemoryTransport(clock="wall"),
            )
            reports = service.run(rounds=2)
            assert len(reports) == 2
            late = metrics.counter("dist.submissions_late").value
            assert late > 0
            assert (
                metrics.counter("transport.late_wall_clock").value == late
            )
        assert all(not report.transfers for report in reports)

    def test_wall_deadline_fires_for_silent_agent(self, tmp_path):
        """Under clock="wall" the grace window itself is the timeout."""
        trace = tmp_path / "trace.jsonl"

        async def session():
            service = AuctionService(
                SCENARIO,
                grace_window=0.2,
                wall_timeout=30.0,
                transport=InMemoryTransport(clock="wall"),
            )
            service.connect(3)  # connected, but nobody ever answers
            return await service.serve_rounds(rounds=1)

        with observing(trace=trace) as metrics:
            started = time.monotonic()
            reports = asyncio.run(session())
            elapsed = time.monotonic() - started
            assert len(reports) == 1
            assert metrics.counter("dist.submissions_timeout").value >= 1
        # the deadline (0.2s), not the 30s liveness guard, closed the round
        assert elapsed < 10.0
        timeout_events = _events(read_trace(trace), "dist.bid_timeout")
        assert {e["fields"]["seller"] for e in timeout_events} == {3}
        assert {e["fields"]["cause"] for e in timeout_events} == {
            "wall_deadline"
        }


class TestTcpDeterminism:
    def test_multi_process_tcp_session_matches_oracle(self):
        """Acceptance: ≥3 rounds over real sockets and OS processes,
        bit-identical to the synchronous replay oracle."""
        scenario = DistScenario(seed=5, horizon_rounds=3)
        service = AuctionService(
            scenario, listen=("127.0.0.1", 0), agent_processes=2
        )
        reports = service.run(rounds=3)
        oracle = replay_scenario(scenario, rounds=3)
        assert len(reports) == 3
        assert service.address is not None
        for served, replayed in zip(reports, oracle):
            served_outcome = (
                served.auction.outcome.to_dict() if served.auction else None
            )
            oracle_outcome = (
                replayed.auction.outcome.to_dict()
                if replayed.auction
                else None
            )
            assert served_outcome == oracle_outcome

    def test_in_loop_tcp_session_matches_oracle_pay_as_bid(self):
        scenario = DistScenario(
            seed=11, horizon_rounds=3, mechanism="pay-as-bid"
        )

        async def session():
            service = AuctionService(
                scenario, listen=("127.0.0.1", 0), agent_processes=0
            )
            workers = []
            service.on_listening = lambda addr: workers.append(
                asyncio.create_task(
                    agent_worker(
                        addr[0], addr[1], scenario.seller_ids(), scenario
                    )
                )
            )
            reports = await service.serve_rounds(rounds=3)
            for worker in workers:
                try:
                    await asyncio.wait_for(worker, timeout=5)
                except (TransportError, asyncio.TimeoutError):
                    worker.cancel()
            return reports

        reports = asyncio.run(session())
        oracle = replay_scenario(scenario, rounds=3)
        assert len(reports) == 3
        for served, replayed in zip(reports, oracle):
            served_outcome = (
                served.auction.outcome.to_dict() if served.auction else None
            )
            oracle_outcome = (
                replayed.auction.outcome.to_dict()
                if replayed.auction
                else None
            )
            assert served_outcome == oracle_outcome
