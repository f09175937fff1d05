"""Asyncio connection frontend: protocol negotiation, pipelining, shedding.

This module is the controller's network face, split out of
:mod:`repro.deployment.controller` so policy state and socket handling
evolve independently.  One :class:`ViaServer` owns the listening socket,
per-connection reader tasks and a bounded request queue -- all on a
single-threaded event loop.

Request flow::

    reader -> admission ladder -> [bounded queue] -> serve pass -> reply
                    |                                    |
                    +-- degrade: cached assignment       +-- deadline
                    +-- shed: explicit ShedMessage           expired?
                                                             shed, not
                                                             silence

The policy never awaits, so the queue is drained by one synchronous
*serve pass* per loop turn: the first request admitted in a turn
schedules it, and it serves every queued request in FIFO order, then
answers each connection with a single ``write`` of all its replies.
Backpressure lives in the reader: a connection whose replies are still
buffered is drained before its next line is read, so a peer that stops
reading stops being read.

Protocol versions coexist per connection:

* **v1** connections (no ``protocol`` in hello) keep the PR 1
  contract: replies in request order, so admitted requests are served
  inline -- one at a time per connection -- exactly as before.
* **v2** connections pipeline: admitted requests enter the shared queue
  and may complete *out of order* (a fault-stalled request is deferred
  while the pass serves the rest); replies carry the request's
  ``corr_id``.

Hostile input never reaches an unhandled exception.  The single gate is
:func:`~repro.deployment.protocol.decode_message`: a line that is not
JSON, names no known type, or carries a field that is not of its declared
wire type (a list for an id, ``"abc"`` or NaN for a time, a malformed
option object) never becomes a message -- it is answered with a
per-request :class:`~repro.deployment.protocol.ErrorMessage` echoing the
line's ``corr_id`` (v2) or dropped (v1), before it is counted, admitted,
WAL-logged or shown to the policy.  A line it accepts travels with its
message (a request's through the queue) to the controller, whose WAL
record is that line: logging a call encodes nothing.  An oversized line
is rejected after the stream has been resynchronised (v2 keeps the
connection, v1 closes cleanly); a slow-loris peer is disconnected by the
idle timeout.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.deployment.admission import AdmissionController
from repro.deployment.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_V1,
    LATEST_PROTOCOL,
    ByeMessage,
    ErrorMessage,
    HelloAckMessage,
    HelloMessage,
    MeasurementMessage,
    MetricsRequestMessage,
    OversizedLineError,
    ProtocolError,
    RequestMessage,
    ResilienceMessage,
    ShardMapMessage,
    ShedMessage,
    StatsRequestMessage,
    SyncRequestMessage,
    decode_message,
    encode_message,
    read_wire_line,
)
from repro.obs.tracing import trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.deployment.controller import ViaController

__all__ = ["ViaServer"]

logger = logging.getLogger(__name__)


@dataclass(slots=True, eq=False)
class _Connection:
    """Per-connection state the reader loop threads through handlers
    (hashed by identity: a serve pass groups replies by connection)."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    peer: Any
    protocol: int = PROTOCOL_V1
    client_id: int | None = None

    @property
    def v2(self) -> bool:
        return self.protocol >= 2


@dataclass(slots=True)
class _QueuedRequest:
    """An admitted request waiting for a serve pass."""

    conn: _Connection
    message: RequestMessage
    #: The wire line ``message`` was decoded from: what the WAL records.
    line: bytes
    enqueued_at: float
    deadline: float


class ViaServer:
    """The controller's asyncio TCP frontend (see module docstring)."""

    def __init__(
        self,
        controller: "ViaController",
        admission: AdmissionController,
        *,
        host: str,
        port: int,
        idle_timeout_s: float | None = None,
    ) -> None:
        self.controller = controller
        self.admission = admission
        self.host = host
        self._requested_port = port
        self.idle_timeout_s = idle_timeout_s
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: deque[_QueuedRequest] = deque()
        #: The scheduled serve pass, if one is pending this loop turn.
        self._pass: asyncio.Handle | None = None
        #: Fault-deferred work: each handle maps to the request it holds
        #: unserved (a stall), or to None (a delayed reply write).
        self._deferred: dict[asyncio.TimerHandle, _QueuedRequest | None] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        #: What the controller holds while this serves (its frozen heap,
        #: its pause hook), released by :meth:`stop`: a crash that stops
        #: only the frontend releases it too.
        self.serving = ExitStack()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("controller not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("controller already started")
        self._loop = asyncio.get_running_loop()
        # The stream limit is above the protocol cap on purpose: lines in
        # between return normally and fail the exact protocol check in
        # read_wire_line; only true monsters take the resync path.
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
            limit=2 * MAX_LINE_BYTES,
        )

    async def stop(self) -> None:
        """Stop serving and sever live connections (a crash, as clients
        see it: their next request must reconnect or fall back)."""
        if self._server is None:
            return
        self.serving.close()
        self._server.close()
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        # No reader is left to admit more.  Queued and fault-deferred
        # requests died with their connections: none of them may reach
        # the policy or the WAL now, and the shed accounting still
        # records them so nothing vanishes silently.
        if self._pass is not None:
            self._pass.cancel()
            self._pass = None
        for handle, item in self._deferred.items():
            handle.cancel()
            if item is not None:
                self.admission.count_shed("shutdown")
        self._deferred.clear()
        for _ in self._queue:
            self.admission.count_shed("shutdown")
        self._queue.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        controller = self.controller
        peer = writer.get_extra_info("peername")
        if not self.admission.connection_opened():
            # Connection-count signal: refuse at the door, explicitly.
            try:
                writer.write(
                    encode_message(
                        ErrorMessage(code="overloaded", detail="connection limit")
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn = _Connection(reader=reader, writer=writer, peer=peer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            await self._reader_loop(conn)
        except (ConnectionError, OSError):
            pass  # peer vanished mid-exchange; clean up below
        finally:
            self._conn_writers.discard(writer)
            self.admission.connection_closed()
            if conn.client_id is not None:
                controller._on_disconnect(conn.client_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
            finally:
                # Untracked last: stop() waits on this task until the
                # socket is closed, so no teardown outlives the server.
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _read_line(self, conn: _Connection) -> bytes:
        if self.idle_timeout_s is None:
            return await read_wire_line(conn.reader)
        return await asyncio.wait_for(
            read_wire_line(conn.reader), timeout=self.idle_timeout_s
        )

    async def _reader_loop(self, conn: _Connection) -> None:
        controller = self.controller
        writer = conn.writer
        while True:
            if writer.transport.get_write_buffer_size():
                # Serve passes write without awaiting; a peer that leaves
                # its replies unread is not read from either.
                await writer.drain()
            try:
                line = await self._read_line(conn)
            except OversizedLineError as exc:
                controller._obs_protocol_errors.inc()
                logger.warning("oversized line from %s: %s", conn.peer, exc)
                if conn.v2:
                    # The stream was resynchronised; reject per-message.
                    await self._send(conn, ErrorMessage(code="oversized"))
                    continue
                break  # v1: clean close, not an unhandled exception
            except asyncio.TimeoutError:
                # Slow-loris / idle peer: reclaim the connection.
                logger.info("idle timeout: closing connection to %s", conn.peer)
                break
            if not line:
                break
            try:
                message = decode_message(line)
            except ProtocolError as exc:
                controller._obs_protocol_errors.inc()
                logger.warning("dropping bad message from %s: %s", conn.peer, exc)
                if conn.v2:
                    await self._send(
                        conn,
                        ErrorMessage(
                            code="malformed", detail=str(exc)[:200], corr_id=exc.corr_id
                        ),
                    )
                continue
            controller._count_message(message.type)
            if isinstance(message, ByeMessage):
                break
            t0 = perf_counter()
            with trace("handle_message", type=message.type):
                await self._handle_message(conn, message, line)
            if not isinstance(message, RequestMessage):
                # Requests are timed at service time (the serve pass), where
                # the latency actually accrues; everything else is inline.
                controller._observe_seconds(message.type, perf_counter() - t0)
            faults = controller.faults
            if faults is not None and faults.should_drop_connection():
                logger.info("fault injection: dropping connection to %s", conn.peer)
                break

    async def _handle_message(self, conn: _Connection, message: Any, line: bytes) -> None:
        """Handle one message and the line it came as; policy errors are isolated here."""
        controller = self.controller
        if isinstance(message, HelloMessage):
            conn.client_id = message.client_id
            if message.protocol >= 2:
                conn.protocol = min(message.protocol, LATEST_PROTOCOL)
                await self._send(
                    conn,
                    HelloAckMessage(
                        protocol=conn.protocol,
                        shard_map=controller._hello_shard_map(),
                        corr_id=message.corr_id,
                    ),
                )
            controller._on_hello(message.client_id, message.site, line=line)
        elif isinstance(message, MeasurementMessage):
            try:
                controller._on_measurement(message, line=line)
            except Exception:
                controller._obs_policy_errors.inc()
                logger.exception("policy.observe failed for %s", conn.peer)
        elif isinstance(message, RequestMessage):
            await self._on_request(conn, message, line)
        elif isinstance(message, StatsRequestMessage):
            await self._send_reply(conn, controller._stats(), message.corr_id)
        elif isinstance(message, MetricsRequestMessage):
            await self._send_reply(conn, controller._metrics_reply(), message.corr_id)
        elif isinstance(message, ResilienceMessage):
            controller._client_resilience[message.client_id] = message
        elif isinstance(message, SyncRequestMessage):
            # Gossip pull: the reply may span several frames (chunked to
            # the wire's line cap); each echoes the request's corr_id.
            for frame in controller._sync_replies(message):
                await self._send_reply(conn, frame, message.corr_id)
        elif isinstance(message, ShardMapMessage):
            controller._on_shard_map(message)
        else:  # a server-to-client type arriving at the server is a bug
            logger.warning("unexpected %s from %s", type(message).__name__, conn.peer)
            if conn.v2:
                await self._send(
                    conn,
                    ErrorMessage(code="unknown_type", corr_id=message.corr_id),
                )
        controller._maybe_store_snapshot()

    # ------------------------------------------------------------------
    # The request path: admission ladder -> queue -> serve pass
    # ------------------------------------------------------------------

    async def _on_request(
        self, conn: _Connection, message: RequestMessage, line: bytes
    ) -> None:
        controller = self.controller
        faults = controller.faults
        if faults is not None and faults.should_blackhole(message.t_hours):
            # Deliberate chaos: the one sanctioned silent non-reply.
            logger.info("fault injection: blackholing request from %s", conn.peer)
            return
        if faults is not None:
            self.admission.forced_overload = faults.overloaded_at(message.t_hours)
        queue = self._queue
        depth = len(queue)
        self.admission.note_queue_depth(depth)
        decision = self.admission.decide(depth)
        if decision.admitted:
            if conn.v2:
                now = self._loop.time()
                queue.append(
                    _QueuedRequest(
                        conn=conn,
                        message=message,
                        line=line,
                        enqueued_at=now,
                        deadline=now + self.admission.config.queue_timeout_s,
                    )
                )
                self.admission.note_queue_depth(depth + 1)
                if self._pass is None:
                    self._pass = self._loop.call_soon(self._serve_pass)
                return
            # v1 promises in-order replies: serve inline, one at a time
            # per connection, exactly the pre-v2 behaviour.
            self.admission.observe_queue_wait(0.0)
            stall = faults.request_stall_s(message.t_hours) if faults is not None else 0.0
            if stall > 0.0:
                await asyncio.sleep(stall)  # chaos: an overloaded policy
            reply = self._serve_request(conn, message, line)
            await self._send_reply(conn, reply, message.corr_id)
            return
        if decision.degraded:
            cached = controller.cached_assignment(message)
            if cached is not None:
                self.admission.count_degraded()
                await self._send_reply(conn, cached, message.corr_id)
                return
            # No stale state to serve: fall through one more rung.
            self.admission.count_shed(f"{decision.reason}_no_cache")
            await self._send_shed(conn, message, decision.reason)
            return
        await self._send_shed(conn, message, decision.reason)

    def _serve_pass(self) -> None:
        """Serve every queued v2 request, then write each connection's
        replies at once: one ``write`` per connection per pass."""
        self._pass = None
        queue = self._queue
        admission = self.admission
        out: dict[_Connection, list[bytes]] = {}
        try:
            while queue:
                item = queue.popleft()
                admission.note_queue_depth(len(queue))
                try:
                    frame = self._dequeue(item)
                except Exception:  # pragma: no cover - isolation backstop
                    logger.exception("request service failed for %s", item.conn.peer)
                    continue
                if frame is not None:
                    out.setdefault(item.conn, []).append(frame)
        finally:
            for conn, frames in out.items():
                self._write(conn, b"".join(frames))

    def _dequeue(self, item: _QueuedRequest) -> bytes | None:
        """One request's turn in a pass: its reply frame, or None when a
        fault deferred its service or its write."""
        now = self._loop.time()
        self.admission.observe_queue_wait(now - item.enqueued_at)
        message = item.message
        if now > item.deadline:
            # Too stale to serve: an explicit shed beats a late answer
            # the client's own timeout already gave up on.
            self.admission.count_shed("deadline")
            return encode_message(ShedMessage(reason="deadline", corr_id=message.corr_id))
        faults = self.controller.faults
        if faults is not None:
            stall = faults.request_stall_s(message.t_hours)
            if stall > 0.0:
                # Chaos, an overloaded policy: this request alone is
                # served later; the pass serves the rest now.
                self._defer(stall, item, self._serve_deferred, item)
                return None
        return self._reply_frame(item)

    def _serve_request(
        self, conn: _Connection, message: RequestMessage, line: bytes
    ) -> Any:
        """Run one admitted request through the policy (v1 inline, v2 in
        a serve pass); a policy error is isolated to a default reply."""
        controller = self.controller
        t0 = perf_counter()
        try:
            reply = controller._on_request(message, line=line)
        except Exception:
            controller._obs_policy_errors.inc()
            logger.exception("policy.assign failed for %s", conn.peer)
            reply = controller._default_reply(message)
        service_s = perf_counter() - t0
        self.admission.observe_service(service_s)
        controller._observe_seconds("request", service_s)
        return reply

    def _reply_frame(self, item: _QueuedRequest) -> bytes | None:
        """Serve ``item`` and encode its reply; None when a fault took
        the write out of this pass."""
        corr_id = item.message.corr_id
        reply = self._serve_request(item.conn, item.message, item.line)
        if reply.corr_id != corr_id:
            reply = replace(reply, corr_id=corr_id)
        frame = encode_message(reply)
        faults = self.controller.faults
        if faults is not None:
            delay = faults.reply_delay_s()
            if delay > 0.0:
                self._defer(delay, None, self._write, item.conn, frame)
                return None
        return frame

    def _serve_deferred(self, item: _QueuedRequest) -> None:
        """A stalled request's turn: served and written on its own."""
        frame = self._reply_frame(item)
        if frame is not None:
            self._write(item.conn, frame)

    def _defer(
        self,
        delay: float,
        item: _QueuedRequest | None,
        callback: Callable[..., None],
        *args: Any,
    ) -> None:
        """Run ``callback(*args)`` in ``delay`` seconds unless :meth:`stop`
        cancels it first; ``item`` is the request it holds unserved."""

        def fire() -> None:
            self._deferred.pop(handle, None)
            callback(*args)

        handle = self._loop.call_later(delay, fire)
        self._deferred[handle] = item

    @staticmethod
    def _write(conn: _Connection, data: bytes) -> None:
        # A peer that vanished is cleaned up by its reader loop.
        if not conn.writer.transport.is_closing():
            conn.writer.write(data)

    # ------------------------------------------------------------------
    # Replies (reader side)
    # ------------------------------------------------------------------

    async def _send_shed(
        self, conn: _Connection, message: RequestMessage, reason: str
    ) -> None:
        """Explicit load-shed reply; a v1 client (which has no ``shed``
        vocabulary) gets its default path assigned server-side instead,
        so even legacy clients never wait on an answer that isn't
        coming."""
        if conn.v2:
            await self._send(
                conn, ShedMessage(reason=reason or "overload", corr_id=message.corr_id)
            )
            return
        await self._send_reply(conn, self.controller._default_reply(message), message.corr_id)

    async def _send_reply(
        self, conn: _Connection, reply: Any, corr_id: int | None
    ) -> None:
        faults = self.controller.faults
        if faults is not None:
            delay = faults.reply_delay_s()
            if delay > 0.0:
                await asyncio.sleep(delay)
        # Assign replies are built with their corr_id; only the off-path
        # ones (stats, metrics, sync frames, redirects) are re-stamped here.
        if corr_id is not None and getattr(reply, "corr_id", None) != corr_id:
            reply = replace(reply, corr_id=corr_id)
        await self._send(conn, reply)

    async def _send(self, conn: _Connection, message: Any) -> None:
        # One write() per message keeps frames atomic on the stream.
        conn.writer.write(encode_message(message))
        await conn.writer.drain()
