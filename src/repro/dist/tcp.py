"""TCP socket transport: length-prefixed JSON frames over asyncio streams.

:class:`TcpTransport` is :class:`~repro.dist.transport.InMemoryTransport`
plus the wire: stamping, sequence numbers, mailboxes, delay validation
and the clock are inherited unchanged, and this module adds only the two
network roles.  One transport plays one of them, fixed by the first
call:

* **router** (:meth:`TcpTransport.listen`) — the orchestrator side.  It
  owns the authoritative envelope sequence and clock; every frame from
  every peer is passed to the same :meth:`~TcpTransport.send` local
  callers use and is stamped there, so per-recipient FIFO order and the
  monotone ``seq`` hold exactly as they do in-memory.  A remote endpoint
  is an inbox that writes a ``deliver`` frame to its peer connection,
  so local endpoints (the orchestrator's own mailbox) and remote
  endpoints (agents on other connections — typically other OS
  processes, see :mod:`repro.dist.workers`) are addressed identically.
* **client** (:meth:`TcpTransport.dial`) — an agent side.  ``register``
  performs a named-endpoint handshake with the router
  (:meth:`wait_registered` confirms it; a duplicate name is rejected
  with a :class:`~repro.errors.TransportError`), ``send`` forwards to the
  router and returns an unstamped ``seq`` 0 echo, and delivered
  envelopes land in local mailboxes exactly as over the in-memory
  transport.

Wire format: each frame is a 4-byte big-endian length prefix followed by
one UTF-8 JSON object with an ``op`` field (``register``, ``registered``,
``register_error``, ``send``, ``deliver``, ``clock``, ``error``).
Messages travel as their versioned ``to_dict`` forms
(:func:`~repro.dist.messages.message_to_dict`), envelopes as
:func:`~repro.dist.messages.envelope_to_dict` — nothing pickled, nothing
host-specific.  A frame that is oversized (``max_frame_bytes``, default
1 MiB), undecodable, or semantically malformed (say a non-string
recipient, a message that is not a protocol object, or a delay that is
negative, NaN or infinite) is rejected: the router counts
``transport.frames_rejected``, answers a best-effort ``error`` frame,
and drops the offending connection.  A send to an unknown endpoint is
counted and answered the same way, but the peer stays connected.  A
client counts a malformed frame from the router too, and then treats
the router as lost.

Error surfaces: sends to an endpoint whose connection died raise
:class:`~repro.errors.TransportError`; a client whose router connection
is lost fails subsequent sends the same way, and synthesizes a
:class:`~repro.dist.messages.Shutdown` delivery into each of its
mailboxes so agent loops exit instead of hanging.  Disconnects and
re-registrations are counted (``transport.disconnects``,
``transport.reconnects``).

Clock modes: under ``clock="virtual"`` the router's clock advances only
via :meth:`advance_to` (broadcast to clients as ``clock`` frames), and a
seeded serving run is bit-identical to the synchronous replay oracle —
arrival order across connections may vary, but stamps, bid content
(per-seller RNG streams), and the orchestrator's canonical ordering make
the outcome order-independent.  Under ``clock="wall"`` stamps are real
elapsed seconds on the router's monotonic clock and the determinism
contract is explicitly relaxed: late is *really* late (see
``docs/serving.md``).

Writes are buffered (``StreamWriter.write`` without ``drain``): the
protocol's frames are small and round-paced, so backpressure never
accumulates beyond a round's fan-out.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from collections.abc import Iterable

from repro.dist.messages import (
    Envelope,
    Shutdown,
    envelope_from_dict,
    envelope_to_dict,
    message_from_dict,
    message_to_dict,
)
from repro.dist.transport import InMemoryTransport, Mailbox
from repro.errors import ConfigurationError, TransportError
from repro.obs.runtime import STATE as _OBS

__all__ = ["TcpTransport", "MAX_FRAME_BYTES", "read_frame", "write_frame"]

MAX_FRAME_BYTES = 1 << 20
"""Default per-frame size limit (1 MiB); oversized frames are rejected."""

_HEADER = struct.Struct(">I")


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> dict:
    """Read one length-prefixed JSON frame; raise ``TransportError`` if bad.

    Raises :class:`asyncio.IncompleteReadError` on EOF between frames
    (the ordinary disconnect path) and :class:`~repro.errors.TransportError`
    for frames that are cut short by EOF, oversized, undecodable, or not
    an object with an ``op`` field.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as eof:
        if eof.partial:
            raise TransportError("truncated frame header") from None
        raise
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise TransportError(
            f"frame of {length} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as eof:
        raise TransportError(
            f"truncated frame: {len(eof.partial)} of {length} bytes"
        ) from None
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise TransportError(f"malformed frame: {error}") from None
    if not isinstance(frame, dict) or "op" not in frame:
        raise TransportError(
            "malformed frame: expected a JSON object with an 'op' field"
        )
    return frame


def write_frame(
    writer: asyncio.StreamWriter,
    frame: dict,
    *,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Serialize and buffer one frame onto ``writer`` (no drain)."""
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise TransportError(
            f"frame of {len(body)} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    writer.write(_HEADER.pack(len(body)) + body)


_MALFORMED = (ArithmeticError, AttributeError, KeyError, TypeError, ValueError)
"""What decoding a well-framed but semantically malformed frame raises."""


class _Peer:
    """Router-side bookkeeping for one accepted connection.

    Its :meth:`put` makes the connection an inbox of the router, so the
    stamping and delivery in :meth:`InMemoryTransport.send` reach remote
    endpoints exactly as they reach local mailboxes.
    """

    def __init__(self, writer: asyncio.StreamWriter, max_frame_bytes: int) -> None:
        self.writer = writer
        self.max_frame_bytes = max_frame_bytes

    @property
    def alive(self) -> bool:
        return not self.writer.is_closing()

    def write(self, frame: dict) -> None:
        if not self.alive:
            raise TransportError("peer connection is closed")
        write_frame(self.writer, frame, max_frame_bytes=self.max_frame_bytes)
        _OBS.metrics.counter("transport.frames_sent").inc()

    def put(self, envelope: Envelope) -> None:
        """Deliver one stamped envelope to the remote endpoint."""
        if not self.alive:
            raise TransportError(
                f"peer serving endpoint {envelope.recipient!r} has disconnected"
            )
        self.write({"op": "deliver", "envelope": envelope_to_dict(envelope)})


class TcpTransport(InMemoryTransport):
    """The socket transport (see the module docstring for the protocol).

    Construct, then fix the role inside a running event loop with
    ``await transport.listen(host, port)`` (router) or
    ``await transport.dial(host, port)`` (client).  ``register`` may be
    called before the role is fixed only on the router-to-be (the
    orchestrator registers its mailbox at construction time); a client
    must dial first.
    """

    def __init__(
        self,
        *,
        clock: str = "virtual",
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        super().__init__(clock=clock)
        self.max_frame_bytes = int(max_frame_bytes)
        self.address: tuple[str, int] | None = None
        self._role: str | None = None  # "router" | "client"
        # router state
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Peer] = set()
        self._seen_endpoints: set[str] = set()
        self._endpoint_event = asyncio.Event()
        # client state
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[str, asyncio.Future] = {}
        self._broken = False

    # ------------------------------------------------------------------
    # role selection
    # ------------------------------------------------------------------
    async def listen(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind as the router; returns the bound ``(host, port)``."""
        if self._role is not None:
            raise ConfigurationError(
                f"transport already acts as a {self._role}"
            )
        if self._closed:
            raise TransportError("transport is closed")
        self._role = "router"
        self._server = await asyncio.start_server(self._accept, host, port)
        bound = self._server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        return self.address

    async def dial(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        retry_interval: float = 0.05,
    ) -> tuple[str, int]:
        """Connect as a client, retrying until ``timeout`` real seconds.

        The retry loop absorbs the startup race of a worker process that
        comes up before the router has bound its socket.
        """
        if self._role is not None:
            raise ConfigurationError(
                f"transport already acts as a {self._role}"
            )
        if self._closed:
            raise TransportError("transport is closed")
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    host, port
                )
                break
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"could not connect to {host}:{port} within "
                        f"{timeout}s: {error}"
                    ) from None
                await asyncio.sleep(retry_interval)
        self._role = "client"
        self.address = (host, port)
        for endpoint in self._inboxes:
            # registered before dial (unusual but allowed): handshake now
            self._queue_registration(endpoint)
        self._reader_task = asyncio.create_task(self._client_loop())
        return self.address

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def register(self, endpoint: str) -> Mailbox:
        mailbox = super().register(endpoint)
        if self._role == "client":
            self._queue_registration(endpoint)
        return mailbox

    def _queue_registration(self, endpoint: str) -> None:
        """Start the client-side handshake for one endpoint name."""
        if endpoint not in self._pending:
            self._pending[endpoint] = (
                asyncio.get_event_loop().create_future()
            )
        self._client_frame({"op": "register", "endpoint": endpoint})

    async def wait_registered(
        self, endpoint: str, *, timeout: float = 10.0
    ) -> None:
        """Await the router's acknowledgement of a client registration.

        Raises :class:`~repro.errors.TransportError` if the router
        rejected the name (already taken by another peer) or the
        connection was lost before the acknowledgement arrived.
        """
        future = self._pending.get(endpoint)
        if future is None:
            raise ConfigurationError(
                f"endpoint {endpoint!r} was not registered on this client"
            )
        error = await asyncio.wait_for(asyncio.shield(future), timeout)
        if error is not None:
            raise TransportError(
                f"registration of {endpoint!r} rejected: {error}"
            )

    async def wait_for_endpoints(
        self, endpoints: Iterable[str], *, timeout: float = 30.0
    ) -> None:
        """Router-side: block until every named endpoint has registered."""
        needed = set(endpoints)
        deadline = time.monotonic() + timeout
        while True:
            present = set(self._inboxes)
            if needed <= present:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = ", ".join(sorted(needed - present))
                raise TransportError(
                    f"timed out waiting for endpoints: {missing}"
                )
            self._endpoint_event.clear()
            try:
                await asyncio.wait_for(
                    self._endpoint_event.wait(), timeout=remaining
                )
            except asyncio.TimeoutError:
                continue  # loop re-checks and raises with the missing set

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self, recipient: str, message, *, sender: str = "", delay: float = 0.0
    ) -> Envelope:
        if self._role != "client":
            return super().send(recipient, message, sender=sender, delay=delay)
        self._check_send(delay)
        self._client_frame(
            {
                "op": "send",
                "recipient": recipient,
                "sender": sender,
                "delay": delay,
                "message": message_to_dict(message),
            }
        )
        # Authoritative stamping happens on the router; the local echo
        # (seq 0) only tells the caller what was submitted.
        now = self.now
        return Envelope(
            seq=0,
            sender=sender,
            recipient=recipient,
            sent_at=now,
            deliver_at=now + delay,
            message=message,
        )

    def _client_frame(self, frame: dict) -> None:
        if self._writer is None or self._writer.is_closing() or self._broken:
            raise TransportError("connection to the router was lost")
        write_frame(
            self._writer, frame, max_frame_bytes=self.max_frame_bytes
        )
        _OBS.metrics.counter("transport.frames_sent").inc()

    # ------------------------------------------------------------------
    # the clock
    # ------------------------------------------------------------------
    def advance_to(self, when: float) -> None:
        if self._role == "client" and self.clock == "virtual":
            raise ConfigurationError(
                "only the router advances the virtual clock"
            )
        super().advance_to(when)
        if self.clock == "virtual":
            for peer in list(self._connections):
                try:
                    peer.write({"op": "clock", "now": when})
                except TransportError:
                    continue

    # ------------------------------------------------------------------
    # router connection handling
    # ------------------------------------------------------------------
    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = _Peer(writer, self.max_frame_bytes)
        self._connections.add(peer)
        try:
            while not self._closed:
                try:
                    frame = await read_frame(
                        reader, max_frame_bytes=self.max_frame_bytes
                    )
                except TransportError as error:
                    self._reject_frame(str(error), peer)
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except asyncio.CancelledError:
                    # Event-loop teardown while blocked on a read: end the
                    # handler quietly (the session is already over).
                    break
                _OBS.metrics.counter("transport.frames_received").inc()
                op = frame.get("op")
                if op == "register":
                    self._handle_register(peer, frame)
                elif op == "send":
                    if not self._handle_send(peer, frame):
                        break
                else:
                    self._reject_frame(f"unknown op {op!r}", peer)
                    break
        finally:
            self._drop_peer(peer)

    def _reject_frame(self, error: str, peer: _Peer | None = None) -> None:
        """Count one rejected frame; answer ``peer`` with an error frame."""
        _OBS.metrics.counter("transport.frames_rejected").inc()
        _OBS.tracer.event("transport.frame_rejected", error=error)
        if peer is not None:
            try:
                peer.write({"op": "error", "error": error})
            except TransportError:
                pass

    def _handle_register(self, peer: _Peer, frame: dict) -> None:
        endpoint = frame.get("endpoint")
        if not endpoint or not isinstance(endpoint, str):
            self._reject_frame("register frame without an endpoint", peer)
            return
        try:
            if endpoint in self._inboxes:
                # A duplicate name is a handshake failure for that name
                # only; the connection (and its other endpoints) stays up.
                peer.write(
                    {
                        "op": "register_error",
                        "endpoint": endpoint,
                        "error": f"endpoint {endpoint!r} is already "
                        "registered",
                    }
                )
                return
            self._inboxes[endpoint] = peer
            if endpoint in self._seen_endpoints:
                _OBS.metrics.counter("transport.reconnects").inc()
                _OBS.tracer.event("transport.reconnect", endpoint=endpoint)
            self._seen_endpoints.add(endpoint)
            self._endpoint_event.set()
            peer.write({"op": "registered", "endpoint": endpoint})
            if self.clock == "virtual" and self._now:
                peer.write({"op": "clock", "now": self._now})
        except TransportError:
            pass

    def _handle_send(self, peer: _Peer, frame: dict) -> bool:
        """Pass one client ``send`` frame to :meth:`send`; False drops the peer."""
        try:
            recipient = frame["recipient"]
            if not isinstance(recipient, str):
                raise TypeError(f"recipient {recipient!r} is not a string")
            self.send(
                recipient,
                message_from_dict(frame["message"]),
                sender=frame.get("sender", ""),
                delay=float(frame.get("delay", 0.0)),
            )
        except TransportError as error:
            # Unknown/dead recipient: tell the sender, keep the peer.
            self._reject_frame(str(error), peer)
        except _MALFORMED as error:
            self._reject_frame(f"malformed send frame: {error}", peer)
            return False
        return True

    def _drop_peer(self, peer: _Peer) -> None:
        self._connections.discard(peer)
        dropped = [
            name for name, inbox in self._inboxes.items() if inbox is peer
        ]
        for name in dropped:
            del self._inboxes[name]
        if dropped and not self._closed:
            _OBS.metrics.counter("transport.disconnects").inc()
            for name in dropped:
                _OBS.tracer.event("transport.disconnect", endpoint=name)
        if not peer.writer.is_closing():
            peer.writer.close()

    # ------------------------------------------------------------------
    # client receive loop
    # ------------------------------------------------------------------
    async def _client_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(
                    self._reader, max_frame_bytes=self.max_frame_bytes
                )
                _OBS.metrics.counter("transport.frames_received").inc()
                try:
                    self._handle_router_frame(frame)
                except _MALFORMED as error:
                    self._reject_frame(
                        f"malformed {frame['op']!r} frame: {error}"
                    )
                    break
        except TransportError as error:
            self._reject_frame(str(error))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._broken = True
            for future in self._pending.values():
                if not future.done():
                    future.set_result("connection to the router was lost")
            if not self._closed:
                _OBS.metrics.counter("transport.disconnects").inc()
                # Unblock agent loops waiting on their mailboxes: a lost
                # router is a shutdown they will never otherwise see.
                now = self.now
                for mailbox in self._inboxes.values():
                    mailbox.put(
                        Envelope(
                            seq=0,
                            sender="",
                            recipient=mailbox.name,
                            sent_at=now,
                            deliver_at=now,
                            message=Shutdown(reason="transport-disconnected"),
                        )
                    )

    def _handle_router_frame(self, frame: dict) -> None:
        """Apply one frame from the router to the client's local state."""
        op = frame["op"]
        if op == "deliver":
            envelope = envelope_from_dict(frame["envelope"])
            mailbox = self._inboxes.get(envelope.recipient)
            if mailbox is not None:
                mailbox.put(envelope)
        elif op == "registered":
            future = self._pending.get(frame.get("endpoint"))
            if future is not None and not future.done():
                future.set_result(None)
        elif op == "register_error":
            endpoint = frame.get("endpoint")
            self._inboxes.pop(endpoint, None)
            future = self._pending.get(endpoint)
            if future is not None and not future.done():
                future.set_result(frame.get("error", "registration rejected"))
        elif op == "clock":
            self._now = max(self._now, float(frame.get("now", self._now)))
        elif op == "error":
            _OBS.tracer.event(
                "transport.remote_error", error=str(frame.get("error", ""))
            )

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        super().close()
        if self._server is not None:
            self._server.close()
        for peer in list(self._connections):
            if not peer.writer.is_closing():
                peer.writer.close()
        self._connections.clear()
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None and not self._writer.is_closing():
            self._writer.close()
