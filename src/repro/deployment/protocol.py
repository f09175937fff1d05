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
dict for the JSON encoder, :func:`decode_message` checks every value
against its declared wire type *before* it constructs the message.  A
decoded message is therefore safe to count, log and hand to the policy:
ids are true integers, times and metrics finite numbers in range, option
objects decode to a :class:`RelayOption`.  Nothing downstream re-checks.

**One JSON engine on the call path, the stdlib as the reference.**  The
message types without a free-form ``dict[str, Any]`` field -- request,
assign, measurement, hello, shed, error, stats, metrics, resilience and
bye -- are written and parsed by orjson, but the stdlib ``json`` module
defines the wire and decides every case where the two could differ: each
field also compiles a *plain* guard per direction (:data:`_PLAIN_TYPES`).
:func:`encode_message` writes orjson's bytes only when every value passes
its guard and the bytes hold no DEL and nothing non-ASCII (the stdlib
escapes both), which makes them the stdlib encoder's bytes.
:func:`decode_message` returns orjson's message only when every value
passes its plain check, which makes it the message ``json.loads`` plus
the field checks would give.  Everything else -- every rejected line
included, so verdicts and ``corr_id`` echoes -- takes the stdlib path.
hello_ack, redirect, shard_map and sync stay on the stdlib both ways:
they are off the call path, and their free-form payloads can carry NaN
(which orjson writes as ``null``) and nesting deeper than ``json.loads``
accepts (which orjson parses).

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
table or the engine: it is ``json.loads`` plus the field checks either way.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple, Union, get_args

import orjson

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


def _keep_socket_reads_off_mmap() -> None:
    """Free one 1 MiB block, so glibc's malloc serves asyncio's reads from its heap.

    An asyncio transport reads into a fresh 256 KiB buffer (its
    ``max_size``) and shrinks it to the bytes received.  Under glibc's
    start-up thresholds (128 KiB) a request that size that the heap cannot
    place is ``mmap``-ed, and the shrunk block is returned to the kernel:
    every read then costs syscalls and a page fault.  Freeing one
    ``mmap``-ed block raises both thresholds for the process (``mmap`` to
    the block's size, heap trim to twice it), so read buffers come from the
    heap and are reused.  Measured on the controller under ``wire_overload``:
    10K-25K more page faults per run and ~15 % more CPU per call without
    it.  Another allocator ignores the free; the block is ``calloc``-ed
    and never touched, so it costs no page.
    """
    bytes(1 << 20)


# Every process on the wire -- controller, client agents, load generators --
# imports this module before it reads a socket.
_keep_socket_reads_off_mmap()

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
# The JSON text of the string "\x00": stands in for a known menu while the
# rest of the line is parsed.  orjson refuses a raw NUL, so in a line with
# no ``\u0000`` escape no string the peer wrote decodes to it.
_HOLE = '"\\u0000"'


def _load_fast(line: str) -> Any:
    """``orjson.loads(line)``, taking a request's menu from the menu table
    when the table holds its text instead of parsing it again.

    The line is parsed with the menu's text replaced by :data:`_HOLE`; the
    table's menu is used only if that parse put the hole at the top-level
    ``options`` -- an escaped or nested ``"options"``, a duplicate key or a
    ``\\u0000`` the peer wrote itself never does -- and anything else is
    ``orjson.loads(line)``, so the result is the same value either way.
    Raises ``ValueError`` where orjson refuses the line."""
    start = line.find(_OPTIONS_AT)
    if start < 0:
        return orjson.loads(line)
    start += len(_OPTIONS_AT) - 1
    end = line.find("]", start) + 1
    key = line[start:end]
    menu = _menus.get(key)
    if menu is None:
        if _menus_held < MENU_INTERN_MAX:
            _remember_menu(key)
        return orjson.loads(line)
    if "\\u0000" not in line:
        payload = orjson.loads(line[:start] + _HOLE + line[end:])
        if type(payload) is dict and payload.get("options") == "\x00":
            # A fresh list per message: none shares one with the table.
            payload["options"] = WireMenu(menu, menu.options)
            return payload
    return orjson.loads(line)


def _remember_menu(key: str) -> None:
    """Add ``key`` to the menu table if its text alone is a valid menu of
    plain options and fits; close the table if a valid menu does not fit."""
    global _menus_held
    try:
        items = json.loads(key)
    except (ValueError, RecursionError):
        return
    if not _is_menu(items):
        return
    if _menus_held + len(key) > MENU_INTERN_MAX:
        _menus_held = MENU_INTERN_MAX
    elif _plain_options(items):
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


# ----------------------------------------------------------------------
# Plain values: where orjson provably agrees with the stdlib
# ----------------------------------------------------------------------


def _is_plain_real(value: Any) -> bool:
    # In this range orjson spells a float as float.__repr__ does (outside
    # it repr writes 1e-05 and 1e+16, orjson 0.00001 and 1e16), and no
    # decoded float is an integer literal past 64 bits, which orjson turns
    # into a float of magnitude >= 2**63.  False for NaN and +-inf.
    if type(value) is float:
        return value == 0.0 or 1e-4 <= abs(value) < 1e16
    return type(value) is int


def _is_plain_hours(value: Any) -> bool:
    return _is_plain_real(value) and value >= 0


_ID_TYPES = frozenset({int, type(None)})


def _is_plain_option(data: Any) -> bool:
    # Exactly the three keys -- an extra one could hide a float, or nesting
    # json.loads refuses (orjson parses 32,000 levels) -- holding a str kind
    # and int or None ids.  An OptionKind kind would pass decode_option, but
    # only orjson writes one.
    if type(data) is not dict or len(data) != 3:
        return False
    try:
        kind, ingress, egress = data["kind"], data["ingress"], data["egress"]
    except KeyError:
        return False
    return type(kind) is str and type(ingress) in _ID_TYPES and type(egress) in _ID_TYPES


def _plain_options(value: Any) -> bool:
    if type(value) is not list and type(value) is not WireMenu:
        return False
    ids = _ID_TYPES
    try:
        for data in value:
            # _is_plain_option, inline: 21 calls per request add up.
            if (
                type(data) is not dict
                or len(data) != 3
                or type(data["kind"]) is not str
                or type(data["ingress"]) not in ids
                or type(data["egress"]) not in ids
            ):
                return False
    except KeyError:
        return False
    return True


def _decodes_plain_option(value: Any) -> bool:
    return _is_plain_option(value) and _is_option(value)


def _decodes_plain_menu(value: Any) -> bool:
    # A WireMenu here is the menu table's, which holds only plain menus.
    # An encoded one may have been changed since, so encode looks inside.
    if type(value) is WireMenu:
        return bool(value)
    return _plain_options(value) and _is_menu(value)


#: Wire type -> (encode guard, decode check) of the orjson path.  An
#: encode guard passes a value orjson writes byte for byte as the stdlib
#: encoder does (it may still raise TypeError: an int past 64 bits, a lone
#: surrogate).  A decode check passes an orjson-decoded value only if
#: ``json.loads`` gives the same value and the wire type's check passes it.
#: Free-form objects have neither: NaN and deep nesting hide in them.
_PLAIN_TYPES: dict[str, tuple[Callable[[Any], bool], Callable[[Any], bool]]] = {
    "int": (_is_int, _is_int),
    "float": (_is_plain_real, _is_plain_real),
    "Hours": (_is_plain_real, _is_plain_hours),
    "str": (_is_str, _is_str),
    "bool": (_is_bool, _is_bool),
    "WireOption": (_is_plain_option, _decodes_plain_option),
    "list[WireOption]": (_plain_options, _decodes_plain_menu),
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
    #: Field name -> encode guard and -> decode check of the orjson path
    #: (:data:`_PLAIN_TYPES`); None for a class with a free-form field.
    plain_encode: dict[str, Callable[[Any], bool]] | None
    plain_decode: dict[str, Callable[[Any], bool]] | None


def _compile(cls: type) -> _Codec:
    declared = fields(cls)
    wire_types = [field.type.removesuffix(" | None") for field in declared]
    table = tuple(
        WireField(field.name, WIRE_TYPES[wire_type], field.type.endswith(" | None"))
        for field, wire_type in zip(declared, wire_types)
    )
    wire_type = next(field.default for field in declared if field.name == "type")
    by_name = {field.name: field for field in table if field.name != "type"}
    # PathMetrics owns the metric ranges; building it is the range check.
    whole = MeasurementMessage.metrics if cls is MeasurementMessage else None
    guards = [_PLAIN_TYPES.get(wire_type) for wire_type in wire_types]
    plain_encode = plain_decode = None
    if None not in guards:  # no free-form field
        names = [field.name for field in declared]
        plain_encode = {name: encode for name, (encode, _) in zip(names, guards)}
        plain_decode = {name: decode for name, (_, decode) in zip(names, guards)}
    return _Codec(cls, wire_type, table, by_name, whole, plain_encode, plain_decode)


_CODEC_OF: dict[type, _Codec] = {cls: _compile(cls) for cls in get_args(Message)}
_CODECS: dict[str, _Codec] = {codec.type: codec for codec in _CODEC_OF.values()}

_encode_json = json.JSONEncoder(separators=(",", ":")).encode


def _all_plain(checks: dict[str, Callable[[Any], bool]], payload: dict[str, Any]) -> bool:
    try:
        for name, value in payload.items():
            if not checks[name](value):
                return False
    except KeyError:  # not a declared field
        return False
    return True


def _dumps_exact(payload: dict[str, Any]) -> bytes | None:
    """orjson's bytes for a payload of plain values, or None where they
    would not be the stdlib encoder's."""
    try:
        encoded = orjson.dumps(payload)
    except TypeError:  # an int past 64 bits, a lone surrogate
        return None
    # The stdlib escapes DEL and every non-ASCII character as \uXXXX.
    return encoded if encoded.isascii() and b"\x7f" not in encoded else None


def encode_message(message: Message) -> bytes:
    """Serialise a message to one newline-terminated JSON line.

    An unset ``corr_id`` is omitted from the wire entirely, so id-less
    messages stay byte-identical to protocol v1; likewise an unset
    ``shard_map`` (single controllers' hello_acks predate sharding).  The
    bytes are the stdlib encoder's: orjson writes them only where every
    value passes its field's encode guard and :func:`_dumps_exact` takes
    its output."""
    codec = _CODEC_OF[type(message)]
    payload = {}
    for name, _, optional in codec.fields:
        value = getattr(message, name)
        if value is not None or not optional:
            payload[name] = value
    encoded = None
    if codec.plain_encode is not None and _all_plain(codec.plain_encode, payload):
        encoded = _dumps_exact(payload)
    if encoded is None:
        encoded = _encode_json(payload).encode("utf-8")
    encoded += b"\n"
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
    value of its wire type, every field without a default is present.

    The message is ``json.loads`` plus those checks: orjson's is returned
    only where it provably is that message, and every other line --
    every line rejected included -- is decided by the stdlib."""
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise OversizedLineError(f"line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8", errors="strict")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"not valid JSON: {line[:80]!r}") from exc
    message = _decode_plain(line)
    return _decode_json(line) if message is None else message


def _decode_plain(line: str) -> Message | None:
    """orjson's message for ``line``, or None where it might not be the
    stdlib's: a line orjson refuses, a free-form type, or a value that
    fails its field's decode check."""
    try:
        payload = _load_fast(line)
    except ValueError:
        return None
    if type(payload) is not dict:
        return None
    msg_type = payload.pop("type", None)
    codec = _CODECS.get(msg_type) if type(msg_type) is str else None
    if codec is None or codec.plain_decode is None:
        return None
    if not _all_plain(codec.plain_decode, payload):
        return None
    try:
        message = codec.cls(**payload)
        if codec.whole is not None:
            codec.whole(message)
    except (TypeError, ValueError):
        return None
    return message


def _decode_json(line: str) -> Message:
    """``json.loads`` plus the field checks: the reference decode."""
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
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
