"""Asyncio connection frontend: protocol negotiation, pipelining, shedding.

This module is the controller's network face, split out of
:mod:`repro.deployment.controller` so policy state and socket handling
evolve independently.  One :class:`ViaServer` owns the listening socket,
per-connection reader tasks, a bounded request queue, and a small pool
of worker coroutines -- all on a single-threaded event loop.

Request flow::

    reader -> admission ladder -> [bounded queue] -> worker -> reply
                    |                                   |
                    +-- degrade: cached assignment      +-- deadline
                    +-- shed: explicit ShedMessage          expired?
                                                            shed, not
                                                            silence

Protocol versions coexist per connection:

* **v1** connections (no ``protocol`` in hello) keep the PR 1
  contract: replies in request order, so admitted requests are served
  inline -- one at a time per connection -- exactly as before.
* **v2** connections pipeline: admitted requests enter the shared queue
  and complete *out of order*; replies carry the request's ``corr_id``.

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
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any

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


@dataclass(slots=True)
class _Connection:
    """Per-connection state the reader loop threads through handlers."""

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
    """An admitted request waiting for a policy worker."""

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
        n_workers: int = 4,
        idle_timeout_s: float | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        self.controller = controller
        self.admission = admission
        self.host = host
        self._requested_port = port
        self.n_workers = n_workers
        self.idle_timeout_s = idle_timeout_s
        self._server: asyncio.Server | None = None
        self._queue: asyncio.Queue[_QueuedRequest] | None = None
        self._workers: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()

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
        self._queue = asyncio.Queue()
        self._workers = [
            asyncio.ensure_future(self._worker()) for _ in range(self.n_workers)
        ]
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
        self._server.close()
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        # Queued-but-unserved requests died with their connections; the
        # shed accounting still records them so nothing vanishes silently.
        if self._queue is not None:
            while not self._queue.empty():
                self._queue.get_nowait()
                self.admission.count_shed("shutdown")
            self._queue = None

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
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            self.admission.connection_closed()
            if conn.client_id is not None:
                controller._on_disconnect(conn.client_id)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_line(self, conn: _Connection) -> bytes:
        if self.idle_timeout_s is None:
            return await read_wire_line(conn.reader)
        return await asyncio.wait_for(
            read_wire_line(conn.reader), timeout=self.idle_timeout_s
        )

    async def _reader_loop(self, conn: _Connection) -> None:
        controller = self.controller
        while True:
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
                # Requests are timed at service time (workers), where the
                # latency actually accrues; everything else is inline.
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
    # The request path: admission ladder -> queue -> worker
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
        assert self._queue is not None
        depth = self._queue.qsize()
        self.admission.note_queue_depth(depth)
        decision = self.admission.decide(depth)
        if decision.admitted:
            loop = asyncio.get_event_loop()
            item = _QueuedRequest(
                conn=conn,
                message=message,
                line=line,
                enqueued_at=loop.time(),
                deadline=loop.time() + self.admission.config.queue_timeout_s,
            )
            if conn.v2:
                self._queue.put_nowait(item)
                self.admission.note_queue_depth(self._queue.qsize())
            else:
                # v1 promises in-order replies: serve inline, one at a
                # time per connection, exactly the pre-v2 behaviour.
                await self._serve_request(item)
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

    async def _worker(self) -> None:
        """One policy worker: serves the shared queue until cancelled."""
        assert self._queue is not None
        queue = self._queue
        while True:
            item = await queue.get()
            try:
                self.admission.note_queue_depth(queue.qsize())
                await self._serve_request(item)
            except (ConnectionError, OSError):
                pass  # peer vanished mid-reply; its reader loop cleans up
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - isolation backstop
                logger.exception("request worker failed")
            finally:
                queue.task_done()

    async def _serve_request(self, item: _QueuedRequest) -> None:
        controller = self.controller
        conn, message = item.conn, item.message
        loop = asyncio.get_event_loop()
        now = loop.time()
        self.admission.observe_queue_wait(now - item.enqueued_at)
        if now > item.deadline:
            # Too stale to serve: an explicit shed beats a late answer
            # the client's own timeout already gave up on.
            self.admission.count_shed("deadline")
            await self._send_shed(conn, message, "deadline")
            return
        faults = controller.faults
        if faults is not None:
            stall = faults.request_stall_s(message.t_hours)
            if stall > 0.0:
                await asyncio.sleep(stall)  # chaos: an overloaded policy
        t0 = perf_counter()
        try:
            reply = controller._on_request(message, line=item.line)
        except Exception:
            controller._obs_policy_errors.inc()
            logger.exception("policy.assign failed for %s", conn.peer)
            reply = controller._default_reply(message)
        service_s = perf_counter() - t0
        self.admission.observe_service(service_s)
        controller._observe_seconds("request", service_s)
        await self._send_reply(conn, reply, message.corr_id)

    # ------------------------------------------------------------------
    # Replies
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
        # One write() per message keeps frames atomic even when several
        # workers reply on the same connection concurrently.
        conn.writer.write(encode_message(message))
        await conn.writer.drain()
