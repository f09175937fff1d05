"""JSON-lines wire protocol between instrumented clients and the controller.

One JSON object per line (newline-delimited), UTF-8.  Client->server
messages (hello, measurement, request, stats_request, metrics_request,
resilience, sync_request, bye) and server->client replies (hello_ack,
assign, stats, metrics, error, shed, redirect, sync); shard_map flows in
both directions inside a controller ring.  The paper notes the per-call
overhead is exactly
the first pair: "one measurement update and one control message exchange
per call" (§7); the operator-facing stats/metrics exchanges are off the
call path.

Two protocol versions share this wire format:

* **v1** (the PR 1 original): no correlation ids, replies arrive in
  request order, one failed request costs the connection.  Still spoken
  by default when a ``hello`` carries no ``protocol`` field.
* **v2**: negotiated by sending ``hello`` with ``protocol: 2`` (the
  server answers with ``hello_ack``).  Every message may carry a
  ``corr_id``; replies echo it, so any number of requests can be in
  flight on one connection and complete out of order.  Failures become
  per-request :class:`ErrorMessage` replies instead of connection
  teardown, and an overloaded controller answers :class:`ShedMessage`
  (an explicit "use your default path") rather than timing out silently.

``corr_id`` is encoded only when set, so a v2 peer talking to v1 code
produces byte-identical v1 wire lines for id-less messages.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import asdict, dataclass
from typing import Any, Union

from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import OptionKind, RelayOption

__all__ = [
    "HelloMessage",
    "HelloAckMessage",
    "MeasurementMessage",
    "RequestMessage",
    "AssignMessage",
    "StatsRequestMessage",
    "StatsMessage",
    "MetricsRequestMessage",
    "MetricsMessage",
    "ResilienceMessage",
    "ErrorMessage",
    "ShedMessage",
    "ByeMessage",
    "RedirectMessage",
    "ShardMapMessage",
    "SyncRequestMessage",
    "SyncMessage",
    "Message",
    "encode_message",
    "decode_message",
    "encode_option",
    "decode_option",
    "check_options",
    "check_measurement",
    "read_wire_line",
    "ProtocolError",
    "OversizedLineError",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "LATEST_PROTOCOL",
]

MAX_LINE_BYTES = 64 * 1024

PROTOCOL_V1 = 1
PROTOCOL_V2 = 2
LATEST_PROTOCOL = PROTOCOL_V2


class ProtocolError(ValueError):
    """Raised on malformed or unknown wire messages."""


class OversizedLineError(ProtocolError):
    """A wire line exceeded :data:`MAX_LINE_BYTES`.

    Raised by :func:`read_wire_line` *after* the stream has been
    resynchronised to the next newline, so the caller may answer with a
    per-message error and keep reading (v2) or close cleanly (v1) --
    never an unhandled exception in the reader loop.
    """


def encode_option(option: RelayOption) -> dict[str, Any]:
    """Wire form of a relaying option."""
    return {"kind": option.kind.value, "ingress": option.ingress, "egress": option.egress}


def decode_option(data: dict[str, Any]) -> RelayOption:
    """Parse the wire form back into a :class:`RelayOption`."""
    try:
        kind = OptionKind(data["kind"])
        return RelayOption(kind=kind, ingress=data.get("ingress"), egress=data.get("egress"))
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolError(f"bad option payload: {data!r}") from exc


_FLOAT_MAX = sys.float_info.max


def _check_option(data: Any) -> None:
    """Accept exactly the payloads :func:`decode_option` turns into a
    :class:`RelayOption` whose relay ids are true integers."""
    if isinstance(data, dict):
        # == on the kind, not a dict probe: a hostile kind may be unhashable.
        kind, ingress, egress = data.get("kind"), data.get("ingress"), data.get("egress")
        if kind == "direct":
            if ingress is None and egress is None:
                return
        # bool is an int subclass and "a" == "a": a relay id is neither.
        elif type(ingress) is int and type(egress) is int:
            if (kind == "bounce" and ingress == egress) or (
                kind == "transit" and ingress != egress
            ):
                return
    raise ProtocolError(f"bad option payload: {data!r:.80}")


def check_options(options: Any) -> None:
    """Reject a request's ``options`` unless it is a list of option
    objects of known kind with relay ids to match.

    ``decode_message`` checks field *names*, not field shapes, so this is
    the server's gate for the one nested field it later indexes into: run
    before a request touches the admission ladder, the WAL or the policy.
    """
    if not isinstance(options, list):
        raise ProtocolError(f"options must be a list: {options!r:.80}")
    for data in options:
        _check_option(data)


def check_measurement(message: "MeasurementMessage") -> None:
    """Reject a measurement unless its option is an option object of
    known kind with relay ids to match, its ids are integers and its time
    and metrics are finite real numbers in the ranges :class:`Call` and
    :class:`PathMetrics` accept.

    The measurement twin of :func:`check_options`: run before the message
    is counted, WAL-logged or shown to the policy, so a poison record can
    never be replayed on every later recovery.
    """
    _check_option(message.option)
    for name in ("src_id", "dst_id"):
        value = getattr(message, name)
        if type(value) is not int:  # bool is an int subclass, not an id
            raise ProtocolError(f"{name} must be an integer: {value!r:.80}")
    for name in ("t_hours", "rtt_ms", "loss_rate", "jitter_ms"):
        value = getattr(message, name)
        # The comparison is False for NaN and +-inf, and exact (no
        # OverflowError) for an integer too large to become a float.
        if type(value) not in (int, float) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise ProtocolError(f"{name} must be a finite number: {value!r:.80}")
    if message.t_hours < 0:
        raise ProtocolError(f"t_hours must be >= 0: {message.t_hours!r:.80}")
    try:
        message.metrics()  # PathMetrics owns the metric ranges
    except ValueError as exc:
        raise ProtocolError(f"bad measurement: {exc}") from exc


@dataclass(frozen=True, slots=True)
class HelloMessage:
    """Client introduction: who, where, and which protocol it speaks.

    ``protocol`` is the highest version the client understands; v1
    clients omit it (the field defaults to 1) and see exactly the PR 1
    behaviour.  A server speaking v2 answers any ``protocol >= 2`` hello
    with a :class:`HelloAckMessage` carrying the negotiated version."""

    client_id: int
    site: str
    protocol: int = PROTOCOL_V1

    type: str = "hello"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class HelloAckMessage:
    """Server's v2 greeting: the negotiated protocol version and the
    server's wire limits (so clients can cap their own frames)."""

    protocol: int
    max_line_bytes: int = MAX_LINE_BYTES
    #: When the server is one shard of a ring, its current shard map
    #: (see :class:`repro.deployment.ring.ShardMap`), so clients can
    #: route each pair to its owning shard from the first request.
    #: ``None`` -- and omitted from the wire -- on single controllers.
    shard_map: dict[str, Any] | None = None

    type: str = "hello_ack"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class MeasurementMessage:
    """One completed call's measured network metrics."""

    src_id: int
    dst_id: int
    t_hours: float
    option: dict[str, Any]
    rtt_ms: float
    loss_rate: float
    jitter_ms: float

    type: str = "measurement"
    corr_id: int | None = None

    def metrics(self) -> PathMetrics:
        return PathMetrics(
            rtt_ms=self.rtt_ms, loss_rate=self.loss_rate, jitter_ms=self.jitter_ms
        )


@dataclass(frozen=True, slots=True)
class RequestMessage:
    """Pre-call relay query: which option should this call use?"""

    src_id: int
    dst_id: int
    t_hours: float
    options: list[dict[str, Any]]

    type: str = "request"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class AssignMessage:
    """Controller's reply to a request."""

    option: dict[str, Any]

    type: str = "assign"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class StatsRequestMessage:
    """Operator query: ask the controller for its counters."""

    type: str = "stats_request"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class StatsMessage:
    """Controller counters (measurements, requests, clients, refreshes)
    plus the resilience observables: client-reported fallbacks/retries,
    reconnects seen server-side, per-message policy errors, faults the
    chaos harness injected, and the admission plane's shed/degraded
    totals.  Added fields default to zero so v1 peers interoperate."""

    n_measurements: int
    n_requests: int
    n_clients: int
    n_refreshes: int
    n_fallbacks: int = 0
    n_retries: int = 0
    n_reconnects: int = 0
    n_policy_errors: int = 0
    n_faults_injected: int = 0
    n_shed: int = 0
    n_degraded: int = 0

    type: str = "stats"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class MetricsRequestMessage:
    """Operator query: scrape the controller's metrics registry."""

    type: str = "metrics_request"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class MetricsMessage:
    """The controller's metrics in Prometheus text exposition format.

    ``text`` is the full multi-line exposition (newlines survive JSON
    encoding); ``format`` names the dialect so future formats can be
    negotiated without a new message type."""

    text: str
    format: str = "prometheus"

    type: str = "metrics"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class ResilienceMessage:
    """Client-side fault counters, pushed opportunistically.

    Counters are *cumulative per client*: the controller keeps the latest
    report per client id and sums across clients, so re-reports after a
    reconnect never double count."""

    client_id: int
    n_retries: int = 0
    n_fallbacks: int = 0
    n_reconnects: int = 0
    n_timeouts: int = 0
    n_sheds: int = 0

    type: str = "resilience"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class ErrorMessage:
    """Per-request failure report (v2): the request named by ``corr_id``
    failed, the connection is still good.

    ``code`` is machine-readable (``malformed``, ``oversized``,
    ``unknown_type``, ``overloaded``, ``shutdown``); ``detail`` is for
    humans and logs."""

    code: str
    detail: str = ""

    type: str = "error"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class ShedMessage:
    """Explicit load-shed reply (v2): the controller declines this
    request so the client should place the call on its default path now.

    An overloaded controller must degrade the *optimisation*, never the
    call: shedding is always an explicit reply, so clients fall back
    immediately instead of burning their timeout budget.
    ``retry_after_s`` hints when control-plane pressure may have eased."""

    reason: str = "overload"
    retry_after_s: float = 0.0

    type: str = "shed"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class RedirectMessage:
    """This shard does not own the request's pair (stale client map).

    Carries the owning shard's index and address so the client can retry
    there directly, plus the server's current ``shard_map`` so the
    client's routing table is fixed for every future pair too.  A
    redirect is *not* an error: the request was well-formed, it just
    knocked on the wrong door."""

    shard: int
    host: str
    port: int
    shard_map: dict[str, Any] | None = None

    type: str = "redirect"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class ShardMapMessage:
    """Push of the ring's current shard map.

    Sent ring→shard when membership or addresses change (e.g. after a
    failover restart) and server→client opportunistically.  Receivers
    replace their routing table wholesale when ``version`` is newer."""

    shard_map: dict[str, Any]

    type: str = "shard_map"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class SyncRequestMessage:
    """Gossip pull: ask a shard for its learned call history.

    ``scope="local"`` returns only measurements the shard observed
    itself (what peers must fold in -- gossiping the merged view would
    double count); ``scope="merged"`` returns the full post-gossip view
    (used by tooling and the failover equivalence tests)."""

    scope: str = "local"

    type: str = "sync_request"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class SyncMessage:
    """One chunk of a shard's serialised call history.

    Large histories are split across frames to respect the wire's
    ``MAX_LINE_BYTES``; ``seq`` orders the chunks and ``last`` marks the
    final one.  ``history`` is a :func:`repro.core.history.history_to_dict`
    payload restricted to this chunk's entries."""

    shard: int
    seq: int
    last: bool
    history: dict[str, Any]
    n_measurements: int = 0

    type: str = "sync"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class ByeMessage:
    """Client sign-off; the controller closes the connection."""

    client_id: int

    type: str = "bye"
    corr_id: int | None = None


Message = Union[
    HelloMessage,
    HelloAckMessage,
    MeasurementMessage,
    RequestMessage,
    AssignMessage,
    StatsRequestMessage,
    StatsMessage,
    MetricsRequestMessage,
    MetricsMessage,
    ResilienceMessage,
    ErrorMessage,
    ShedMessage,
    RedirectMessage,
    ShardMapMessage,
    SyncRequestMessage,
    SyncMessage,
    ByeMessage,
]

_MESSAGE_TYPES: dict[str, type] = {
    "hello": HelloMessage,
    "hello_ack": HelloAckMessage,
    "measurement": MeasurementMessage,
    "request": RequestMessage,
    "assign": AssignMessage,
    "stats_request": StatsRequestMessage,
    "stats": StatsMessage,
    "metrics_request": MetricsRequestMessage,
    "metrics": MetricsMessage,
    "resilience": ResilienceMessage,
    "error": ErrorMessage,
    "shed": ShedMessage,
    "redirect": RedirectMessage,
    "shard_map": ShardMapMessage,
    "sync_request": SyncRequestMessage,
    "sync": SyncMessage,
    "bye": ByeMessage,
}


def encode_message(message: Message) -> bytes:
    """Serialise a message to one newline-terminated JSON line.

    An unset ``corr_id`` is omitted from the wire entirely, so id-less
    messages stay byte-identical to protocol v1; likewise an unset
    ``shard_map`` (single controllers' hello_acks predate sharding)."""
    payload = asdict(message)
    if payload.get("corr_id") is None:
        payload.pop("corr_id", None)
    if "shard_map" in payload and payload["shard_map"] is None:
        payload.pop("shard_map")
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    encoded = line.encode("utf-8")
    if len(encoded) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    return encoded


def decode_message(line: bytes | str) -> Message:
    """Parse one wire line into its message dataclass."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise OversizedLineError(f"line exceeds {MAX_LINE_BYTES} bytes")
        line = line.decode("utf-8", errors="strict")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"not valid JSON: {line[:80]!r}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a JSON object: {line[:80]!r}")
    msg_type = payload.pop("type", None)
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type: {msg_type!r}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ProtocolError(f"bad fields for {msg_type!r}: {exc}") from exc


async def read_wire_line(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_LINE_BYTES
) -> bytes:
    """Read one newline-terminated line, hardened against hostile framing.

    Returns ``b""`` at EOF, the partial tail when the peer disconnects
    mid-line, and otherwise one complete line of at most ``max_bytes``.
    A longer line raises :class:`OversizedLineError` -- but only after
    discarding input through the next newline, so the stream stays in
    sync and the connection remains usable.  The reader's own buffer
    limit must exceed ``max_bytes`` for the size check to be exact
    (servers pass ``limit=2 * MAX_LINE_BYTES`` to ``start_server``).
    """
    try:
        line = await reader.readline()
    except ValueError:
        # The stream-limit overflow path: readline() dropped its buffer.
        # Discard until the terminating newline (or EOF) to resync.
        while True:
            try:
                tail = await reader.readline()
            except ValueError:
                continue
            if not tail or tail.endswith(b"\n"):
                break
        raise OversizedLineError(f"line exceeds {max_bytes} bytes") from None
    if len(line) > max_bytes:
        # Framed (a newline arrived) but over the protocol cap.  The
        # stream is already in sync; reject just this message.
        raise OversizedLineError(f"line exceeds {max_bytes} bytes")
    return line
