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

The message dataclasses below are the only description of the wire.  At
import each class's declared fields are compiled into one **field table**
-- ``(name, wire-type check, omitted-when-None)`` per field, the check
chosen by the field's annotation (:data:`WIRE_TYPES`) -- and both
directions walk it: :func:`encode_message` copies the fields into a flat
dict for one shared JSON encoder, :func:`decode_message` checks every
value against its declared wire type *before* it constructs the message.
A decoded message is therefore safe to count, log and hand to the policy:
ids are true integers, times and metrics finite numbers in range, option
objects decode to a :class:`RelayOption`.  Nothing downstream re-checks.

Option objects repeat on every call (a pair's menu is the same 21 dicts
each time), so :func:`decode_option` interns them: the first sight of an
option is shape-checked and constructed, later sights are one dict probe
returning the shared frozen instance (see :data:`OPTION_INTERN_MAX`).
Whole menus repeat too, so :func:`decode_message` keeps a bounded **menu
table** from the exact JSON text of a request's ``options`` array to that
menu, already checked and interned (a :class:`WireMenu`): a request whose
menu it has seen skips parsing and checking those 21 objects, and the
decoded message hands the policy its :class:`RelayOption` tuple (see
:data:`MENU_INTERN_MAX`).  What a line decodes to never depends on the
table: it is ``json.loads`` plus the field checks either way.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Union, get_args

from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, OptionKind, RelayOption

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
    "WireField",
    "WireMenu",
    "WIRE_TYPES",
    "OPTION_INTERN_MAX",
    "MENU_INTERN_MAX",
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
    """Raised on malformed or unknown wire messages.

    ``corr_id`` is the rejected line's correlation id when the line was a
    JSON object carrying a well-formed (integer) one: no message comes
    back from a failed decode to read it from, and a v2 server echoes it
    so the caller fails fast instead of waiting out its timeout.
    """

    def __init__(self, detail: str, *, corr_id: int | None = None) -> None:
        super().__init__(detail)
        self.corr_id = corr_id


class OversizedLineError(ProtocolError):
    """A wire line exceeded :data:`MAX_LINE_BYTES`.

    Raised by :func:`read_wire_line` *after* the stream has been
    resynchronised to the next newline, so the caller may answer with a
    per-message error and keep reading (v2) or close cleanly (v1) --
    never an unhandled exception in the reader loop.
    """


# ----------------------------------------------------------------------
# Relay options on the wire (interned)
# ----------------------------------------------------------------------

#: Most distinct option objects the intern table holds.  A 64-relay fleet
#: has 64 bounce + 4032 transit + 1 direct options; past the cap an option
#: still decodes (checked and constructed per call), it just is not kept,
#: so a peer sending endless distinct relay ids cannot grow the process.
OPTION_INTERN_MAX = 8192

#: Most characters of menu text the menu table holds, summed over its
#: keys: about 1,100 menus of 21 options.  Counted in text because a parsed
#: menu costs at most ~20 bytes per character of its text whatever its
#: shape (so ~20 MB in all), where one menu can be a whole 64 KB line.  The
#: first menu that does not fit closes the table; past it a request still
#: decodes exactly as it would with no table (parsed and checked per call),
#: so a peer sending endless distinct menus cannot grow the process.
MENU_INTERN_MAX = 1 << 20

# Keyed on the field *types* as well as the values: True == 1 == 1.0 and
# all three hash alike, so a (kind, ingress, egress) key alone would let a
# bool or float id hit the entry cached for the integer.
_interned_options: dict[tuple, RelayOption] = {}


def encode_option(option: RelayOption) -> dict[str, Any]:
    """Wire form of a relaying option."""
    return {"kind": option.kind.value, "ingress": option.ingress, "egress": option.egress}


def decode_option(data: dict[str, Any]) -> RelayOption:
    """Parse the wire form back into a :class:`RelayOption`.

    Accepts an object of known ``kind`` whose relay ids are true integers
    matching the kind (direct: none; bounce: equal; transit: two
    distinct); anything else is a :class:`ProtocolError`.  Equal payloads
    return the same shared instance (``DIRECT`` for direct)."""
    try:
        ingress, egress = data["ingress"], data["egress"]
        return _interned_options[data["kind"], ingress, egress, type(ingress), type(egress)]
    except (KeyError, TypeError):  # first sight, absent ids, or not an option at all
        return _intern_option(data)


def _intern_option(data: Any) -> RelayOption:
    """Check an option's shape, construct it, and keep it if there is room."""
    option = None
    if isinstance(data, dict):
        kind, ingress, egress = data.get("kind"), data.get("ingress"), data.get("egress")
        if kind == "direct":
            if ingress is None and egress is None:
                option = DIRECT
        # bool is an int subclass and "a" == "a": a relay id is neither.
        elif type(ingress) is int and type(egress) is int:
            try:
                # RelayOption owns which ids go with which kind.
                option = RelayOption(OptionKind(kind), ingress, egress)
            except ValueError:
                pass
    if option is None:
        raise ProtocolError(f"bad option payload: {data!r:.80}")
    if len(_interned_options) < OPTION_INTERN_MAX:
        _interned_options[kind, ingress, egress, type(ingress), type(egress)] = option
    return option


class WireMenu(list):
    """A request's ``options`` as decoded: the option objects, plus
    ``options``, the :class:`RelayOption` each decodes to, in order.

    Building one decodes every item, so a ``WireMenu`` is a checked menu
    by construction: the ``list[WireOption]`` wire type accepts it
    without looking inside.  Its option objects are the menu table's own
    dicts; read them, do not mutate them."""

    __slots__ = ("options",)

    def __init__(self, items: Any = (), options: tuple[RelayOption, ...] | None = None):
        super().__init__(items)
        self.options = tuple(map(decode_option, self)) if options is None else options


# The menu table: a request ``options`` array's exact JSON text -> that
# menu, checked and interned.  Entries are built from the key text alone.
_menus: dict[str, WireMenu] = {}
#: Characters of the keys in ``_menus``; MENU_INTERN_MAX once it is closed.
_menus_held = 0
_OPTIONS_AT = '"options":['
# A JSON number no encoder writes (it underflows to -0.0): stands in for a
# known menu while the rest of the line is parsed.
_HOLE = "-0.0e-99999"
_HOLE_VALUE = object()
_decode_with_hole = json.JSONDecoder(
    parse_float=lambda text: _HOLE_VALUE if text == _HOLE else float(text)
).decode


def _load(line: str) -> Any:
    """``json.loads(line)``, taking a request's menu from the menu table
    when the table holds its text instead of parsing it again.

    The line is parsed with the menu's text replaced by :data:`_HOLE`; the
    table's menu is used only if that parse put the hole at the top-level
    ``options`` -- an escaped or nested ``"options"``, a duplicate key or a
    hole the peer wrote itself never does -- and anything else is
    ``json.loads(line)``, so the result is the same value either way."""
    start = line.find(_OPTIONS_AT)
    if start < 0:
        return json.loads(line)
    start += len(_OPTIONS_AT) - 1
    end = line.find("]", start) + 1
    key = line[start:end]
    menu = _menus.get(key)
    if menu is None:
        if _menus_held < MENU_INTERN_MAX:
            _remember_menu(key)
        return json.loads(line)
    if _HOLE not in line:
        try:
            payload = _decode_with_hole(line[:start] + _HOLE + line[end:])
        except (ValueError, RecursionError):
            pass
        else:
            if type(payload) is dict and payload.get("options") is _HOLE_VALUE:
                # A fresh list per message: none shares one with the table.
                payload["options"] = WireMenu(menu, menu.options)
                return payload
    return json.loads(line)


def _remember_menu(key: str) -> None:
    """Add ``key`` to the menu table if its text alone is a valid menu and
    fits; close the table if it does not fit."""
    global _menus_held
    try:
        items = json.loads(key)
    except (ValueError, RecursionError):
        return
    if not _is_menu(items):
        return
    if _menus_held + len(key) > MENU_INTERN_MAX:
        _menus_held = MENU_INTERN_MAX
        return
    _menus[key] = WireMenu(items)
    _menus_held += len(key)


# ----------------------------------------------------------------------
# Wire types: what a field's annotation admits on decode
# ----------------------------------------------------------------------

#: Annotation aliases that name a wire type narrower than the Python type.
WireOption = dict[str, Any]
Hours = float

_FLOAT_MAX = sys.float_info.max


def _is_int(value: Any) -> bool:
    return type(value) is int  # bool is an int subclass, not an id or a count


def _is_real(value: Any) -> bool:
    # The comparison is False for NaN and +-inf, and exact (no
    # OverflowError) for an integer too large to become a float.
    return (type(value) is float or type(value) is int) and (
        -_FLOAT_MAX <= value <= _FLOAT_MAX
    )


def _is_hours(value: Any) -> bool:
    # Call rejects a negative t_hours; by then the message is in the WAL.
    return (type(value) is float or type(value) is int) and 0 <= value <= _FLOAT_MAX


def _is_str(value: Any) -> bool:
    return type(value) is str


def _is_bool(value: Any) -> bool:
    return type(value) is bool


def _is_object(value: Any) -> bool:
    return type(value) is dict


def _is_option(value: Any) -> bool:
    try:
        decode_option(value)
    except ProtocolError:
        return False
    return True


def _is_menu(value: Any) -> bool:
    # Non-empty: the policy cannot choose from no options, and by the time
    # it says so the request is in the WAL.
    if type(value) is WireMenu:
        return bool(value)  # its items were decoded when it was built
    if not isinstance(value, list) or not value:
        return False
    interned = _interned_options
    try:
        for data in value:
            # decode_option's probe, inline: 21 calls per request add up.
            try:
                ingress, egress = data["ingress"], data["egress"]
                interned[data["kind"], ingress, egress, type(ingress), type(egress)]
            except (KeyError, TypeError):
                _intern_option(data)
    except ProtocolError:
        return False
    return True


#: Declared annotation -> the check a decoded value must pass.  The only
#: place a wire type is defined; a field annotated with anything else
#: fails at import, so no field can reach the wire unchecked.
WIRE_TYPES: dict[str, Callable[[Any], bool]] = {
    "int": _is_int,
    "float": _is_real,
    "Hours": _is_hours,
    "str": _is_str,
    "bool": _is_bool,
    "dict[str, Any]": _is_object,
    "WireOption": _is_option,
    "list[WireOption]": _is_menu,
}


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
    t_hours: Hours
    option: WireOption
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
    t_hours: Hours
    options: list[WireOption]

    type: str = "request"
    corr_id: int | None = None


@dataclass(frozen=True, slots=True)
class AssignMessage:
    """Controller's reply to a request."""

    option: WireOption

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

# ----------------------------------------------------------------------
# The field tables: one per message class, compiled once at import
# ----------------------------------------------------------------------


class WireField(NamedTuple):
    """One declared field as the codec sees it."""

    name: str
    #: The wire type: a decoded value is accepted iff this returns True.
    check: Callable[[Any], bool]
    #: Omitted from the wire when None (and None accepted when present).
    optional: bool


class _Codec(NamedTuple):
    cls: type
    #: The wire ``type`` string: the default of the class's ``type`` field.
    type: str
    #: In declaration order, which is the order fields are encoded in.
    fields: tuple[WireField, ...]
    #: The fields a peer may send, by name (``type`` is consumed first).
    by_name: dict[str, WireField]
    #: Called on the constructed message for ranges that span fields or
    #: belong to another class; raises ValueError.
    whole: Callable[[Any], Any] | None


def _compile(cls: type) -> _Codec:
    declared = fields(cls)
    table = tuple(
        WireField(
            field.name,
            WIRE_TYPES[field.type.removesuffix(" | None")],
            field.type.endswith(" | None"),
        )
        for field in declared
    )
    wire_type = next(field.default for field in declared if field.name == "type")
    by_name = {field.name: field for field in table if field.name != "type"}
    # PathMetrics owns the metric ranges; building it is the range check.
    whole = MeasurementMessage.metrics if cls is MeasurementMessage else None
    return _Codec(cls, wire_type, table, by_name, whole)


_CODEC_OF: dict[type, _Codec] = {cls: _compile(cls) for cls in get_args(Message)}
_CODECS: dict[str, _Codec] = {codec.type: codec for codec in _CODEC_OF.values()}

_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_message(message: Message) -> bytes:
    """Serialise a message to one newline-terminated JSON line.

    An unset ``corr_id`` is omitted from the wire entirely, so id-less
    messages stay byte-identical to protocol v1; likewise an unset
    ``shard_map`` (single controllers' hello_acks predate sharding)."""
    payload = {}
    for name, _, optional in _CODEC_OF[type(message)].fields:
        value = getattr(message, name)
        if value is not None or not optional:
            payload[name] = value
    encoded = (_encode_json(payload) + "\n").encode("utf-8")
    if len(encoded) > MAX_LINE_BYTES:
        raise ProtocolError(f"message exceeds {MAX_LINE_BYTES} bytes")
    return encoded


def _check_fields(codec: _Codec, payload: dict[str, Any]) -> None:
    """Raise unless every item is a declared field holding a value of
    its wire type."""
    by_name = codec.by_name
    try:
        for name, value in payload.items():
            _, check, optional = by_name[name]
            if not check(value) and not (optional and value is None):
                raise ProtocolError(f"bad {name}: {value!r:.80}")
    except KeyError:
        raise ProtocolError(f"unexpected field {name!r:.40}") from None


def decode_message(line: bytes | str) -> Message:
    """Parse one wire line into its message dataclass, or raise
    :class:`ProtocolError`: every field present is declared and holds a
    value of its wire type, every field without a default is present."""
    try:
        if isinstance(line, bytes):
            if len(line) > MAX_LINE_BYTES:
                raise OversizedLineError(f"line exceeds {MAX_LINE_BYTES} bytes")
            line = line.decode("utf-8", errors="strict")
        payload = _load(line)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: a few thousand nested "[" fit in one line.
        raise ProtocolError(f"not valid JSON: {line[:80]!r}") from exc
    if type(payload) is not dict:
        raise ProtocolError(f"expected a JSON object: {line[:80]!r}")
    msg_type = payload.pop("type", None)
    try:
        # A hostile type may be unhashable: only a string is looked up.
        codec = _CODECS.get(msg_type) if type(msg_type) is str else None
        if codec is None:
            raise ValueError("unknown message type")
        _check_fields(codec, payload)
        message = codec.cls(**payload)  # TypeError: a required field is missing
        if codec.whole is not None:
            codec.whole(message)
    except (TypeError, ValueError) as exc:
        corr_id = payload.get("corr_id")
        raise ProtocolError(
            f"bad {msg_type!r:.40} message: {exc}",
            corr_id=corr_id if type(corr_id) is int else None,
        ) from exc
    return message


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
