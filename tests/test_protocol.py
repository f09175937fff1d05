"""Unit tests for repro.deployment.protocol (wire format).

The message dataclasses compile into one field table per class; the
strategies and hostile payloads below are derived *from that table*, so
a field added to a message is generated, round-tripped and attacked
without a new hand-written case.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import Counter
from dataclasses import asdict, fields

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.deployment import ViaController, protocol
from repro.deployment.protocol import (
    OPTION_INTERN_MAX,
    WIRE_TYPES,
    ByeMessage,
    HelloMessage,
    MeasurementMessage,
    ProtocolError,
    RequestMessage,
    WireField,
    decode_message,
    decode_option,
    encode_message,
    encode_option,
)
from repro.netmodel.options import DIRECT, OptionKind, RelayOption
from repro.telephony.call import Call


class TestOptionCodec:
    @pytest.mark.parametrize(
        "option", [DIRECT, RelayOption.bounce(3), RelayOption.transit(1, 7)]
    )
    def test_roundtrip(self, option):
        assert decode_option(encode_option(option)) == option

    def test_decode_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            decode_option({"kind": "teleport", "ingress": None, "egress": None})

    def test_decode_rejects_inconsistent_ids(self):
        with pytest.raises(ProtocolError):
            decode_option({"kind": "bounce", "ingress": 1, "egress": 2})

    def test_decode_rejects_missing_kind(self):
        with pytest.raises(ProtocolError):
            decode_option({"ingress": 1})


class TestOptionInterning:
    """The intern table is a cache, not a second, laxer gate."""

    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(protocol, "_interned_options", {})

    @pytest.mark.parametrize(
        "damage",
        [
            {"ingress": True, "egress": True},
            {"ingress": 1.0, "egress": 1.0},
            {"ingress": "1", "egress": "1"},
            {"ingress": True},
            {"egress": 1.0},
            {"kind": ["bounce"]},
            {"kind": {}},
        ],
        ids=repr,
    )
    def test_a_cached_option_does_not_admit_its_lookalikes(self, damage):
        cached = {"kind": "bounce", "ingress": 1, "egress": 1}
        assert decode_option(cached) == RelayOption.bounce(1)
        assert len(protocol._interned_options) == 1
        lookalike = {**cached, **damage}
        with pytest.raises(ProtocolError):
            decode_option(lookalike)
        assert not protocol._is_menu([cached, lookalike])
        assert len(protocol._interned_options) == 1

    def test_the_table_stops_growing_at_its_cap(self):
        n = 10**5
        assert n > OPTION_INTERN_MAX
        for relay_id in range(n):
            decode_option({"kind": "bounce", "ingress": relay_id, "egress": relay_id})
        assert len(protocol._interned_options) == OPTION_INTERN_MAX
        # Past the cap an option still decodes, checked every time.
        late = {"kind": "transit", "ingress": n - 1, "egress": n - 2}
        assert decode_option(late) == RelayOption.transit(n - 1, n - 2)
        assert decode_option(late) is not decode_option(late)
        with pytest.raises(ProtocolError):
            decode_option({**late, "egress": n - 1})
        assert len(protocol._interned_options) == OPTION_INTERN_MAX

    @pytest.mark.parametrize(
        "option", [DIRECT, RelayOption.bounce(3), RelayOption.transit(1, 7)]
    )
    def test_interned_options_are_the_same_value(self, option):
        first = decode_option(encode_option(option))
        assert decode_option(encode_option(option)) is first
        fresh = RelayOption(OptionKind(option.kind.value), option.ingress, option.egress)
        assert first == fresh and hash(first) == hash(fresh)
        assert {first: "learned"}[fresh] == "learned"

    def test_direct_is_the_singleton_in_either_spelling(self):
        assert decode_option({"kind": "direct"}) is DIRECT
        assert decode_option(encode_option(DIRECT)) is DIRECT


class TestMessageCodec:
    def test_line_terminated(self):
        assert encode_message(ByeMessage(client_id=1)).endswith(b"\n")

    def test_decode_accepts_str(self):
        line = encode_message(HelloMessage(client_id=1, site="US")).decode()
        assert isinstance(decode_message(line), HelloMessage)


class TestMalformedInput:
    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_message(b"not json\n")

    @pytest.mark.parametrize(
        "line", [b"\xff\xfe\n", b"[" * 5000 + b"\n"], ids=["bad-utf8", "deep-nesting"]
    )
    def test_rejects_bytes_the_json_parser_chokes_on(self, line):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_message(line)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(json.dumps({"type": "ping"}).encode())

    def test_rejects_missing_fields(self):
        with pytest.raises(ProtocolError, match="bad 'hello' message"):
            decode_message(json.dumps({"type": "hello"}).encode())

    def test_rejects_extra_fields(self):
        payload = {"type": "bye", "client_id": 1, "extra": True}
        with pytest.raises(ProtocolError):
            decode_message(json.dumps(payload).encode())

    def test_rejects_oversized_line(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(b"x" * (64 * 1024 + 1))

    @pytest.mark.parametrize(
        "corr_id,echoed", [(7, 7), ("seven", None), ([7], None), (True, None)]
    )
    def test_error_carries_only_a_well_formed_corr_id(self, corr_id, echoed):
        line = json.dumps({"type": "bye", "client_id": "x", "corr_id": corr_id})
        with pytest.raises(ProtocolError) as caught:
            decode_message(line)
        assert caught.value.corr_id == echoed


# ----------------------------------------------------------------------
# Derived from the field table: valid instances of every message type
# ----------------------------------------------------------------------

_relay_ids = st.integers(-(2**70), 2**70)
_valid_options = st.one_of(
    st.just(DIRECT),
    _relay_ids.map(RelayOption.bounce),
    st.tuples(_relay_ids, _relay_ids)
    .filter(lambda ids: ids[0] != ids[1])
    .map(lambda ids: RelayOption.transit(*ids)),
).map(encode_option)
_json_leaves = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
)
_reals = st.floats(min_value=0.0, max_value=1e9) | st.integers(0, 10**6)

#: Valid values per wire type, keyed by the check the field table holds.
VALID_VALUES = {
    WIRE_TYPES["int"]: st.integers(-(2**70), 2**70),
    WIRE_TYPES["float"]: _reals,
    WIRE_TYPES["Hours"]: _reals,
    WIRE_TYPES["str"]: st.text(max_size=8),
    WIRE_TYPES["bool"]: st.booleans(),
    WIRE_TYPES["dict[str, Any]"]: st.dictionaries(
        st.text(max_size=4), _json_leaves | st.lists(_json_leaves, max_size=3), max_size=3
    ),
    WIRE_TYPES["WireOption"]: _valid_options,
    WIRE_TYPES["list[WireOption]"]: st.lists(_valid_options, min_size=1, max_size=4),
}
#: PathMetrics, not the wire type, owns this range.
VALID_RANGES = {"loss_rate": st.floats(min_value=0.0, max_value=1.0)}


def messages_of(codec) -> st.SearchStrategy:
    """Valid instances of one message class, built from its field table."""
    kwargs = {}
    for name, check, optional in codec.fields:
        if name != "type":
            values = VALID_RANGES.get(name, VALID_VALUES[check])
            kwargs[name] = st.none() | values if optional else values
    return st.builds(codec.cls, **kwargs)


def reference_encode(message) -> bytes:
    """The encoder as it was before the field table: ``asdict`` + pops."""
    payload = asdict(message)
    if payload.get("corr_id") is None:
        payload.pop("corr_id", None)
    if "shard_map" in payload and payload["shard_map"] is None:
        payload.pop("shard_map")
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


class TestFieldTableCodec:
    def test_every_message_class_has_a_table_of_its_declared_fields(self):
        assert len(protocol._CODECS) == 17
        for wire_type, codec in protocol._CODECS.items():
            assert codec.cls(**_exemplar(codec)).type == wire_type
            assert [f.name for f in codec.fields] == [f.name for f in fields(codec.cls)]
            assert all(f.check in VALID_VALUES for f in codec.fields)

    @given(st.one_of([messages_of(codec) for codec in protocol._CODECS.values()]))
    @settings(max_examples=400)
    def test_bytes_match_the_reference_and_round_trip(self, message):
        line = encode_message(message)
        assert line == reference_encode(message)
        assert decode_message(line) == message


# ----------------------------------------------------------------------
# Derived from the field table: one hostile value per field in turn
# ----------------------------------------------------------------------

HOSTILE_VALUES = [
    None, True, 10**400, float("nan"), float("inf"), float("-inf"), "x", [1], {"a": 1}, [],
]
_EXEMPLARS = {
    WIRE_TYPES["int"]: 3,
    WIRE_TYPES["float"]: 0.5,
    WIRE_TYPES["Hours"]: 1.5,
    WIRE_TYPES["str"]: "x",
    WIRE_TYPES["bool"]: True,
    WIRE_TYPES["dict[str, Any]"]: {},
    WIRE_TYPES["WireOption"]: encode_option(RelayOption.bounce(1)),
    WIRE_TYPES["list[WireOption]"]: [
        encode_option(o) for o in (DIRECT, RelayOption.bounce(1), RelayOption.transit(0, 1))
    ],
}


def _exemplar(codec) -> dict:
    return {name: _EXEMPLARS[check] for name, check, _ in codec.fields if name != "type"}


def hostile_lines(codecs) -> list[bytes]:
    """Each type's valid exemplar, then the exemplar with every field
    (``type`` included) replaced in turn by every hostile value."""
    lines = []
    for wire_type, codec in codecs.items():
        valid = {"type": wire_type, **_exemplar(codec)}
        payloads = [valid] + [
            {**valid, name: value} for name in valid for value in HOSTILE_VALUES
        ]
        lines += [(json.dumps(payload) + "\n").encode() for payload in payloads]
    return lines


def _survives_decode(line: bytes):
    try:
        return decode_message(line)
    except ProtocolError:
        return None


def assert_lines_are_harmless(lines, store_dir, hello) -> None:
    """Feed ``lines`` to a durable controller over one real connection.

    Whatever decodes is served, whatever does not is refused; either way
    no policy error, no unhandled exception, nothing in the WAL that did
    not decode, and the connection still answers at the end -- then a
    restart replays that WAL without a policy error either."""
    outcomes = [(line, _survives_decode(line)) for line in lines]
    # A bye that decodes is a valid sign-off: it would end the run.
    lines = [line for line, message in outcomes if not isinstance(message, ByeMessage)]
    logged = Counter(
        message.type
        for _, message in outcomes
        if message is not None and message.type in ("hello", "measurement", "request")
    )
    logged["hello"] += 1
    unhandled = []

    async def scenario():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        async with ViaController(store=store_dir) as controller:
            reader, writer = await asyncio.open_connection("127.0.0.1", controller.port)

            async def until_stats():
                while True:
                    line = await asyncio.wait_for(reader.readline(), timeout=20.0)
                    assert line, "the server closed the connection"
                    reply = json.loads(line)
                    if reply["type"] == "stats" and reply.get("corr_id") == 10**6:
                        return reply

            answered = asyncio.ensure_future(until_stats())
            writer.write((json.dumps(hello) + "\n").encode())
            writer.writelines(lines)
            writer.write(b'{"type":"stats_request","corr_id":1000000}\n')
            await writer.drain()
            await answered
            frontend = controller._frontend
            while frontend._queue or frontend._pass is not None:
                await asyncio.sleep(0)  # let the pending serve pass run
            assert controller.n_policy_errors == 0
            records = controller.store.records_after(0).records
            assert Counter(r["kind"] for r in records) == logged
            writer.close()
        async with ViaController(store=store_dir) as recovered:
            assert recovered.n_policy_errors == 0
            assert recovered.n_requests == logged["request"]

    asyncio.run(scenario())
    assert not unhandled, unhandled


class TestHostileFieldValues:
    def test_a_hostile_field_is_refused_or_decodes_to_a_checked_message(self):
        for line in hostile_lines(protocol._CODECS):
            message = _survives_decode(line)
            if message is not None:
                codec = protocol._CODECS[message.type]
                for name, check, optional in codec.fields:
                    value = getattr(message, name)
                    assert check(value) or (optional and value is None), (line, name)

    @pytest.mark.parametrize(
        "hello",
        [
            {"type": "hello", "client_id": 0, "site": "US"},
            {"type": "hello", "client_id": 0, "site": "US", "protocol": 2},
        ],
        ids=["v1", "v2"],
    )
    def test_the_controller_serves_or_refuses_every_hostile_line(
        self, hello, tmp_path, caplog
    ):
        with caplog.at_level("ERROR"):
            assert_lines_are_harmless(hostile_lines(protocol._CODECS), tmp_path, hello)
        assert not [r for r in caplog.records if r.levelname == "ERROR"], caplog.text

    def test_a_field_without_its_check_is_caught_by_the_property(
        self, tmp_path, monkeypatch
    ):
        """Planted bug: drop ``t_hours`` from a copy of the request table."""
        codec = protocol._CODECS["request"]
        lax = WireField("t_hours", lambda value: True, False)
        planted = codec._replace(by_name={**codec.by_name, "t_hours": lax})
        monkeypatch.setitem(protocol._CODECS, "request", planted)
        with pytest.raises(AssertionError):
            assert_lines_are_harmless(
                hostile_lines({"request": planted}),
                tmp_path,
                {"type": "hello", "client_id": 0, "site": "US", "protocol": 2},
            )


# ----------------------------------------------------------------------
# Generated wire values: what the server's gate lets through
# ----------------------------------------------------------------------

#: Any JSON value a peer can put in a field, weighted towards the edges.
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.sampled_from([10**400, -(10**400), 2**63]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["direct", "bounce", "transit", "a", ""]),
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)
#: An option object with every field arbitrary -- or not an object at all.
_option_payloads = st.one_of(
    st.fixed_dictionaries(
        {}, optional={"kind": _json_values, "ingress": _json_values, "egress": _json_values}
    ),
    _json_values,
)


def _or_valid(valid, hostile=_json_values):
    """``valid`` often enough that damage to one field alone is reached."""
    return st.just(valid) | hostile


def _assert_decodes_to_a_sound_option(payload) -> None:
    option = decode_option(payload)
    hash(option)
    assert all(type(relay_id) is int for relay_id in option.relay_ids())
    assert decode_option(encode_option(option)) == option


class TestGeneratedWireValues:
    @given(st.lists(_option_payloads, max_size=3) | _json_values)
    @example([{"kind": "direct"}, {"kind": "bounce", "ingress": [1], "egress": [1]}])
    @example([{"kind": "direct", "ingress": 1}])
    @example([{"kind": "bounce", "ingress": "a", "egress": "a"}, {"kind": "direct"}])
    @example([{"kind": "bounce", "ingress": True, "egress": 1}])
    @example([{"kind": "transit", "ingress": 1, "egress": 1.5}])
    @settings(max_examples=300)
    def test_options_are_rejected_or_decode_to_sound_options(self, options):
        line = json.dumps(
            {"type": "request", "src_id": 3, "dst_id": 4, "t_hours": 1.5, "options": options},
            separators=(",", ":"),
        )
        try:
            message = decode_message(line)
        except ProtocolError:
            return
        assert options and message.options == options
        for payload in message.options:
            _assert_decodes_to_a_sound_option(payload)

    @given(
        option=_or_valid({"kind": "transit", "ingress": 0, "egress": 1}, _option_payloads),
        src_id=_or_valid(3),
        dst_id=_or_valid(4),
        t_hours=_or_valid(1.5),
        rtt_ms=_or_valid(80.0),
        loss_rate=_or_valid(0.01),
        jitter_ms=_or_valid(2),
    )
    @example(option={"kind": "bounce", "ingress": "a", "egress": "a"}, src_id=3,
             dst_id=4, t_hours=1.5, rtt_ms=80.0, loss_rate=0.01, jitter_ms=2)
    @settings(max_examples=300)
    def test_measurement_is_rejected_or_fully_usable(self, **fields):
        try:
            message = decode_message(encode_message(MeasurementMessage(**fields)))
        except (ProtocolError, ValueError):
            return
        _assert_decodes_to_a_sound_option(message.option)
        assert type(message.src_id) is int and type(message.dst_id) is int
        metrics = message.metrics()  # in range, or PathMetrics raises
        assert all(
            math.isfinite(value)
            for value in (message.t_hours, metrics.rtt_ms, metrics.loss_rate, metrics.jitter_ms)
        )
        assert message.t_hours >= 0
        assert decode_message(encode_message(message)) == message

    @given(
        src_id=_or_valid(3),
        dst_id=_or_valid(4),
        t_hours=_or_valid(1.5),
        options=_or_valid(
            [{"kind": "direct"}, {"kind": "bounce", "ingress": 0, "egress": 0}],
            st.lists(_option_payloads, max_size=3) | _json_values,
        ),
        corr_id=_or_valid(7),
    )
    @example(src_id=True, dst_id=4, t_hours=1.5, options=[{"kind": "direct"}], corr_id=7)
    @example(src_id=3, dst_id=4, t_hours=-1, options=[{"kind": "direct"}], corr_id=7)
    @example(src_id=3, dst_id=4, t_hours=1.5, options=[], corr_id=7)
    @example(src_id=3, dst_id=4, t_hours=1.5, options=[{"kind": "direct"}], corr_id="seven")
    @settings(max_examples=300)
    def test_request_is_rejected_or_fully_usable(self, **fields):
        try:
            message = decode_message(json.dumps({"type": "request", **fields}))
        except ProtocolError:
            return
        assert isinstance(message, RequestMessage)
        assert type(message.src_id) is int and type(message.dst_id) is int
        assert message.corr_id is None or type(message.corr_id) is int
        assert message.options
        for payload in message.options:
            _assert_decodes_to_a_sound_option(payload)
        Call(  # the record the controller builds: raises on a bad time
            call_id=1, t_hours=message.t_hours, src_asn=message.src_id,
            dst_asn=message.dst_id, src_country="?", dst_country="?",
            src_user=message.src_id, dst_user=message.dst_id,
        )
        assert math.isfinite(message.t_hours)

    @given(
        client_id=_or_valid(3),
        site=_or_valid("US"),
        protocol=_or_valid(2),
        corr_id=_or_valid(7),
    )
    @example(client_id=[1], site="x", protocol=2, corr_id=7)
    @example(client_id=3, site="x", protocol="2", corr_id=7)
    @settings(max_examples=300)
    def test_hello_is_rejected_or_fully_usable(self, **fields):
        try:
            message = decode_message(json.dumps({"type": "hello", **fields}))
        except ProtocolError:
            return
        assert isinstance(message, HelloMessage)
        assert type(message.client_id) is int and type(message.site) is str
        assert type(message.protocol) is int
        assert message.corr_id is None or type(message.corr_id) is int

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_every_valid_option_passes(self, a, b):
        menu = [DIRECT, RelayOption.bounce(a)]
        if a != b:
            menu.append(RelayOption.transit(a, b))
        assert protocol._is_menu([encode_option(o) for o in menu])
        assert protocol._is_menu([{"kind": "direct"}])  # absent ids read as None


#: 2,000 socket reads of 300 bytes into asyncio-sized (256 KiB) buffers,
#: in a fresh interpreter whose free heap chunks that size are taken first
#: (as a long-running server's are): prints the page faults they took.
_READ_FAULTS = """
import resource, socket, sys
if sys.argv[1] == "protocol":
    import repro.deployment.protocol
held = [bytes(256 * 1024) for _ in range(64)]
a, b = socket.socketpair()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2000):
    a.sendall(b"x" * 300)
    b.recv(256 * 1024)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _read_faults(imports: str) -> int:
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", _READ_FAULTS, imports], env=env, capture_output=True,
        text=True, check=True,
    )
    return int(out.stdout)


class TestSocketReadBuffers:
    def test_importing_the_protocol_keeps_read_buffers_off_mmap(self):
        """A bare process on glibc maps and unmaps each 256 KiB read buffer
        (a page fault or more per read); once the protocol is imported the
        buffers come from the heap."""
        pytest.importorskip("resource")
        cold = _read_faults("bare")
        if cold < 2000:
            pytest.skip(f"this allocator does not map each read buffer ({cold} faults)")
        assert _read_faults("protocol") < 200
