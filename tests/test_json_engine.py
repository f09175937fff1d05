"""orjson on the call path, the stdlib as the arbiter.

``encode_message`` writes orjson's bytes only where they are the stdlib
encoder's, and ``decode_message`` returns orjson's message only where it
is the stdlib decode of the line -- ``json.loads`` plus the field checks
-- so no byte on the wire and no verdict on a hostile line depends on the
engine.  A differential over generated messages, per-field edge values
and hostile lines holds the contract, and one planted bug per guard (a
copy of the protocol module with that guard's line changed) shows the
differential can fail.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.deployment import protocol
from repro.deployment.protocol import encode_message, encode_option
from repro.netmodel.options import DIRECT, OptionKind, RelayOption
from tests.test_menu_table import (
    ADVERSARIAL_REQUESTS,
    HEAD,
    HOLE,
    LINES,
    MENU,
    request_line,
    same,
)
from tests.test_protocol import _exemplar, hostile_lines, messages_of


def stdlib_encode(message) -> bytes:
    """``json.dumps`` of the message's fields, the unset optional ones
    (``corr_id``, a hello_ack's ``shard_map``) left out."""
    payload = {
        f.name: getattr(message, f.name)
        for f in fields(message)
        if getattr(message, f.name) is not None or not f.type.endswith(" | None")
    }
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def encoded(encode, message):
    try:
        return encode(message)
    except (TypeError, ValueError) as exc:
        return type(exc)


# ----------------------------------------------------------------------
# Encode: the stdlib's bytes, or the stdlib's exception
# ----------------------------------------------------------------------

_BOUNCE = {"kind": "bounce", "ingress": 1, "egress": 1}
#: Values whose orjson spelling, or whose acceptance, is not the stdlib's.
EDGE_VALUES = [
    1e-05, 1e16, 5e-324, -0.0, float("nan"), float("inf"), float("-inf"),
    2**64, -(2**63) - 1, np.float64(0.5), True, None,
    "é", "\x7f", "a\x7fb", "\ud800", "\x00\n\"\\",
    {**_BOUNCE, "x": 1e-05},
    {"kind": "bounce", "ingress": 1.0, "egress": 1.0},
    {"kind": "bounce", "ingress": 1e17, "egress": 1e17},
    {"kind": OptionKind.BOUNCE, "ingress": 1, "egress": 1},
    {"kind": "bounce", "ingress": 2**64, "egress": 2**64},
    {"kind": "direct"},
]
EDGE_VALUES += [[_BOUNCE, value] for value in EDGE_VALUES if type(value) is dict]


def edge_messages(module) -> list:
    """Every message class's exemplar with each field in turn replaced by
    each edge value, built from ``module``'s classes."""
    messages = []
    for codec in module._CODECS.values():
        valid = _exemplar(protocol._CODECS[codec.type])
        messages.append(codec.cls(**valid))
        for name in valid:
            messages += [codec.cls(**{**valid, name: value}) for value in EDGE_VALUES]
    return messages


def assert_encodes_like_the_stdlib(module, messages) -> None:
    for message in messages:
        got = encoded(module.encode_message, message)
        assert got == encoded(stdlib_encode, message), message


_any_message = st.one_of([messages_of(codec) for codec in protocol._CODECS.values()])


class TestEncode:
    @given(_any_message)
    @settings(max_examples=400)
    def test_generated_messages_encode_to_the_stdlib_bytes(self, message):
        assert encode_message(message) == stdlib_encode(message)

    def test_edge_values_encode_to_the_stdlib_bytes(self):
        assert_encodes_like_the_stdlib(protocol, edge_messages(protocol))

    def test_a_changed_decoded_menu_encodes_to_the_stdlib_bytes(self):
        protocol.decode_message(request_line())  # the menu table now holds MENU
        message = protocol.decode_message(request_line())
        assert type(message.options) is protocol.WireMenu
        message.options.append({"kind": "bounce", "ingress": 1e17, "egress": 1e17})
        assert encode_message(message) == stdlib_encode(message)

    def test_the_call_path_takes_orjson(self, monkeypatch):
        """The guards pass what the generator and the controller send."""
        menu = json.loads(MENU)
        messages = [
            protocol.RequestMessage(3, 4, 1.5, menu, corr_id=7),
            protocol.AssignMessage(encode_option(RelayOption.transit(1, 2)), corr_id=7),
            protocol.MeasurementMessage(3, 4, 1.5, menu[1], 80.0, 0.01, 2.0, corr_id=8),
            protocol.HelloMessage(1, "US", 2),
            protocol.ShedMessage(corr_id=9),
        ]
        lines = [encode_message(m) for m in messages]
        monkeypatch.setattr(protocol, "_encode_json", None)
        monkeypatch.setattr(protocol, "_decode_json", None)
        assert [encode_message(m) for m in messages] == lines
        protocol.decode_message(lines[0])  # the menu table now holds MENU
        assert [protocol.decode_message(line) for line in lines] == messages


# ----------------------------------------------------------------------
# Decode: the stdlib's message, or the stdlib's error and corr_id
# ----------------------------------------------------------------------


def _line(**fields) -> str:
    return json.dumps(fields, separators=(",", ":"))


_DEEP = "[" * 5000 + "]" * 5000
_OPTION = '{"kind":"direct","ingress":null,"egress":null'

#: Lines where orjson's parse could differ from json.loads'.
EDGE_LINES = [
    request_line(),
    # A duplicate top-level options key spelled with an escape, before and
    # after the menu, holding a list or the hole.
    f'{{{HEAD}"\\u006fptions":[1],"options":{MENU}}}',
    f'{{{HEAD}"options":{MENU},"\\u006fptions":[1]}}',
    f'{{{HEAD}"\\u006fptions":{HOLE},"options":{MENU}}}',
    f'{{{HEAD}"options":{MENU},"\\u006fptions":{HOLE}}}',
    # A \u0000 escape where the hole would go, and in a string.
    f'{{{HEAD}"options":{HOLE}}}',
    f'{{{HEAD}"options":{MENU},"corr_id":7}}'.replace('"direct"', '"direct\\u0000"'),
    _line(type="hello", client_id=1, site="\x00", protocol=2),
    # Lone surrogates json.loads takes and orjson refuses, and a pair.
    '{"type":"hello","client_id":1,"site":"\\ud800","protocol":2}',
    '{"type":"hello","client_id":1,"site":"\\ud83d\\u0041","protocol":2}',
    '{"type":"hello","client_id":1,"site":"\\ud83d\\ude00","protocol":2}',
    # Options under the 3-key rule.
    f'{{"type":"assign","option":{_OPTION},"x":{_DEEP}}},"corr_id":5}}',
    f'{{"type":"assign","option":{_OPTION},"x":{{"y":{_DEEP}}}}},"corr_id":5}}',
    f'{{{HEAD}"options":[{_OPTION},"x":{_DEEP}}}],"corr_id":5}}',
    '{"type":"assign","option":{"kind":"direct"},"corr_id":5}',
    '{"type":"assign","option":{"kind":"bounce","ingress":1,"egress":1,"x":1e-05}}',
    # Floats at the edges of the range where the two parse alike.
    _line(type="shed", retry_after_s=1e-05),
    _line(type="shed", retry_after_s=1e16),
    _line(type="shed", retry_after_s=-0.0),
    '{"type":"shed","retry_after_s":-1e-400}',
    '{"type":"shed","retry_after_s":1e999}',
    '{"type":"shed","retry_after_s":NaN,"corr_id":3}',
]
#: Integer literals orjson reads as a uint64 or as a float, in id and
#: float fields.
for literal in (2**63, 2**64, 10**23, -(2**63) - 1):
    EDGE_LINES += [
        f'{{{HEAD.replace("3", str(literal), 1)}"options":{MENU}}}',
        f'{{{HEAD.replace("1.5", str(literal))}"options":{MENU},"corr_id":{literal}}}',
        f'{{"type":"assign","option":{{"kind":"bounce","ingress":{literal},'
        f'"egress":{literal}}},"corr_id":4}}',
        _line(type="measurement", src_id=3, dst_id=4, t_hours=1.5,
              option={"kind": "direct", "ingress": None, "egress": None},
              rtt_ms=literal, loss_rate=0.0, jitter_ms=literal),
    ]


def outcome(module, decode, line):
    """What ``decode`` makes of ``line``: the message's class and fields,
    or the error's text and echoed ``corr_id``."""
    try:
        message = decode(line)
    except module.ProtocolError as exc:
        return {"error": str(exc), "corr_id": exc.corr_id}
    return {"class": type(message).__name__} | {
        f.name: getattr(message, f.name) for f in fields(message)
    }


def assert_decodes_like_the_stdlib(module, lines) -> None:
    """Feed ``lines`` in order: each must decode as ``module``'s stdlib
    decode of it does."""
    for line in lines:
        got = outcome(module, module.decode_message, line)
        expected = outcome(module, module._decode_json, line)
        assert same(got, expected), (line[:160], got, expected)


def decode_corpus() -> list[str]:
    hostile = [line.decode() for line in hostile_lines(protocol._CODECS)]
    return EDGE_LINES + ADVERSARIAL_REQUESTS + hostile


class TestDecode:
    def test_edge_and_hostile_lines_decode_as_the_stdlib_does(self):
        assert_decodes_like_the_stdlib(protocol, decode_corpus())

    def test_the_edge_lines_reach_both_verdicts(self):
        verdicts = {
            "error" in outcome(protocol, protocol.decode_message, line) for line in EDGE_LINES
        }
        assert verdicts == {True, False}

    @given(st.lists(LINES, min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_generated_lines_decode_as_the_stdlib_does(self, lines):
        assert_decodes_like_the_stdlib(protocol, [request_line()] + lines)

    @given(_any_message)
    @settings(max_examples=300)
    def test_generated_messages_decode_as_the_stdlib_does(self, message):
        line = stdlib_encode(message).decode()
        assert_decodes_like_the_stdlib(protocol, [line, json.dumps(json.loads(line))])


# ----------------------------------------------------------------------
# Planted bugs: each guard, removed, fails the differential
# ----------------------------------------------------------------------


def planted(old: str | None = None, new: str = "") -> types.ModuleType:
    """A fresh copy of the protocol module (with its own intern and menu
    tables), ``old`` in its source replaced by ``new``."""
    source = inspect.getsource(protocol)
    if old is not None:
        assert source.count(old) == 1, f"planted-bug anchor moved: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("planted_protocol")
    sys.modules[module.__name__] = module  # dataclasses looks its module up
    try:
        exec(compile(source, protocol.__file__, "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


class TestPlantedBugs:
    def test_the_unchanged_copy_passes(self):
        module = planted()
        assert_decodes_like_the_stdlib(module, decode_corpus())
        assert_encodes_like_the_stdlib(module, edge_messages(module))

    def test_dropping_the_nul_guard_is_caught(self):
        module = planted('    if "\\\\u0000" not in line:\n', "    if True:\n")
        with pytest.raises(AssertionError):
            assert_decodes_like_the_stdlib(module, decode_corpus())

    def test_dropping_the_float_bound_is_caught(self):
        module = planted("1e-4 <= abs(value) < 1e16", "1e-4 <= abs(value) <= _FLOAT_MAX")
        with pytest.raises(AssertionError):
            assert_decodes_like_the_stdlib(module, decode_corpus())

    @pytest.mark.parametrize(
        "old,new",
        [
            ("    if type(data) is not dict or len(data) != 3:\n",
             "    if type(data) is not dict:\n"),
            ("                or len(data) != 3\n", ""),
        ],
        ids=["option", "menu"],
    )
    def test_dropping_the_three_key_rule_on_decode_is_caught(self, old, new):
        module = planted(old, new)
        with pytest.raises(AssertionError):
            assert_decodes_like_the_stdlib(module, decode_corpus())

    def test_widening_the_encode_float_range_is_caught(self):
        module = planted(
            "return value == 0.0 or 1e-4 <= abs(value) < 1e16",
            "return abs(value) <= _FLOAT_MAX",  # every finite float
        )
        with pytest.raises(AssertionError):
            assert_encodes_like_the_stdlib(module, edge_messages(module))

    @pytest.mark.parametrize(
        "old,new",
        [
            ('encoded.isascii() and b"\\x7f" not in encoded', 'b"\\x7f" not in encoded'),
            ('encoded.isascii() and b"\\x7f" not in encoded', "encoded.isascii()"),
        ],
        ids=["ascii", "del"],
    )
    def test_skipping_the_output_check_is_caught(self, old, new):
        module = planted(old, new)
        with pytest.raises(AssertionError):
            assert_encodes_like_the_stdlib(module, edge_messages(module))
