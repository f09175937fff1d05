"""Unit tests for repro.deployment.protocol (wire format)."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.deployment.protocol import (
    AssignMessage,
    ByeMessage,
    HelloMessage,
    MeasurementMessage,
    ProtocolError,
    RequestMessage,
    check_measurement,
    check_options,
    decode_message,
    decode_option,
    encode_message,
    encode_option,
)
from repro.netmodel.options import DIRECT, RelayOption


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


class TestMessageCodec:
    def test_hello_roundtrip(self):
        msg = HelloMessage(client_id=3, site="SG")
        assert decode_message(encode_message(msg)) == msg

    def test_bye_roundtrip(self):
        msg = ByeMessage(client_id=5)
        assert decode_message(encode_message(msg)) == msg

    def test_assign_roundtrip(self):
        msg = AssignMessage(option=encode_option(RelayOption.bounce(2)))
        assert decode_message(encode_message(msg)) == msg

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_measurement_roundtrip(self, src, dst, t, rtt, loss, jitter):
        msg = MeasurementMessage(
            src_id=src, dst_id=dst, t_hours=t,
            option=encode_option(RelayOption.transit(0, 1)),
            rtt_ms=rtt, loss_rate=loss, jitter_ms=jitter,
        )
        decoded = decode_message(encode_message(msg))
        assert decoded == msg
        assert decoded.metrics().rtt_ms == pytest.approx(rtt)

    def test_request_roundtrip(self):
        msg = RequestMessage(
            src_id=1, dst_id=2, t_hours=3.5,
            options=[encode_option(o) for o in (DIRECT, RelayOption.bounce(0))],
        )
        assert decode_message(encode_message(msg)) == msg

    def test_line_terminated(self):
        assert encode_message(ByeMessage(client_id=1)).endswith(b"\n")

    def test_decode_accepts_str(self):
        line = encode_message(HelloMessage(client_id=1, site="US")).decode()
        assert isinstance(decode_message(line), HelloMessage)


class TestMalformedInput:
    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_message(b"not json\n")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown message type"):
            decode_message(json.dumps({"type": "ping"}).encode())

    def test_rejects_missing_fields(self):
        with pytest.raises(ProtocolError, match="bad fields"):
            decode_message(json.dumps({"type": "hello"}).encode())

    def test_rejects_extra_fields(self):
        payload = {"type": "bye", "client_id": 1, "extra": True}
        with pytest.raises(ProtocolError):
            decode_message(json.dumps(payload).encode())

    def test_rejects_oversized_line(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_message(b"x" * (64 * 1024 + 1))


# ----------------------------------------------------------------------
# Generated wire values: what the server's gates let through
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
        try:
            check_options(options)
        except ProtocolError:
            return
        for payload in options:
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
        message = MeasurementMessage(**fields)
        try:
            check_measurement(message)
        except ProtocolError:
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

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_every_valid_option_passes(self, a, b):
        menu = [DIRECT, RelayOption.bounce(a)]
        if a != b:
            menu.append(RelayOption.transit(a, b))
        check_options([encode_option(o) for o in menu])
        check_options([{"kind": "direct"}])  # absent ids read as None
