"""The menu table in repro.deployment.protocol: a cache, never a second parser.

``decode_message`` takes a request's menu from the table when it has seen
the menu's exact JSON text before.  The contract is that what a line
decodes to never depends on the table, nor on the JSON engine:
``decode_message(line)`` is the stdlib's decode of the line --
``json.loads`` plus the field checks, compared type-strictly, so ``true``
is not ``1`` -- or both raise the same error.  A property over lines
built from the fragments that could fool a text search, a fixed list of
the adversarial lines, and one planted bug per guard (mutants of the fast
loader ``_load_fast``'s own source) hold it.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from dataclasses import fields
from unittest import mock

import orjson
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import ViaConfig
from repro.deployment import ViaController, protocol
from repro.deployment.protocol import (
    MENU_INTERN_MAX,
    MeasurementMessage,
    ProtocolError,
    RequestMessage,
    WireMenu,
    decode_message,
    decode_option,
    encode_message,
    encode_option,
)
from repro.netmodel.options import DIRECT, RelayOption

#: The registered menu every check starts from.
MENU = json.dumps(
    [encode_option(o) for o in (DIRECT, RelayOption.bounce(1), RelayOption.transit(1, 2))],
    separators=(",", ":"),
)
#: ``==`` to INT_MENU's payload (True == 1), but not an option list.
TRUE_MENU = '[{"kind":"bounce","ingress":true,"egress":true}]'
INT_MENU = '[{"kind":"bounce","ingress":1,"egress":1}]'
HOLE = protocol._HOLE
#: A request's other fields, as the text that opens its object.
HEAD = '"type":"request","src_id":3,"dst_id":4,"t_hours":1.5,'


def request_line(menu: str = MENU, **fields) -> str:
    head = {"type": "request", "src_id": 3, "dst_id": 4, "t_hours": 1.5, **fields}
    return json.dumps(head, separators=(",", ":"))[:-1] + f',"options":{menu}}}\n'


def as_request(line: str) -> str:
    """``line`` with a request's other fields opening its object, so that a
    line the table could answer decodes to a message."""
    return "{" + HEAD + line[1:] if line.startswith("{") else line


@contextmanager
def fresh_table():
    """An empty menu table holding MENU, restored afterwards."""
    with mock.patch.object(protocol, "_menus", {}), mock.patch.object(
        protocol, "_menus_held", 0
    ):
        protocol._load_fast(request_line())
        assert MENU in protocol._menus
        yield


@pytest.fixture(autouse=True)
def table():
    with fresh_table():
        yield


def same(a, b) -> bool:
    """``a == b`` with types: ``True`` is not ``1``, ``-0.0`` not ``0.0``,
    and a ``WireMenu`` is the list it holds."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) is float:
        return repr(a) == repr(b)
    return a == b


def outcome(decode, line):
    """What ``decode`` makes of ``line``: the message's type and values, or
    the error's text and echoed ``corr_id``."""
    try:
        message = decode(line)
    except ProtocolError as exc:
        return {"error": str(exc), "corr_id": exc.corr_id}
    return {"class": type(message).__name__} | {
        f.name: getattr(message, f.name) for f in fields(message)
    }


def assert_decodes_like_json(lines) -> None:
    """Feed ``lines`` in order (earlier lines may fill the table); each must
    decode as the stdlib decode -- ``json.loads`` plus the field checks --
    does."""
    for line in lines:
        got, expected = outcome(decode_message, line), outcome(protocol._decode_json, line)
        assert same(got, expected), (line, got, expected)


#: Each line defeats a naive "find the text, splice the menu in".
ADVERSARIAL = [
    f'{{"options":{MENU}}}',
    f'{{"options":{MENU},"t":1.5,"n":NaN}}',
    # A hole the peer wrote itself.
    f'{{"options":{MENU},"b":{HOLE}}}',
    f'{{"b":{HOLE},"options":{MENU}}}',
    f'{{"options":{MENU},"s":"{HOLE}"}}',
    # The text sits in an escaped key, a nested object, a list.
    f'{{"x\\"options":{MENU}}}',
    f'{{"x\\"options":{MENU},"options":[1]}}',
    f'{{"a":{{"options":{MENU}}}}}',
    f'[{{"options":{MENU}}}]',
    # Duplicate keys: the last one wins, in either spelling.
    f'{{"options":{MENU},"options":[1]}}',
    f'{{"options":{MENU},"\\u006fptions":[1]}}',
    f'{{"\\u006fptions":[1],"options":{MENU}}}',
    f'{{"options":[1],"options":{MENU}}}',
    # A registration keyed on one value and built from another ...
    f'{{"options":{TRUE_MENU},"options":{INT_MENU}}}',
    # ... would answer this one with integers.
    f'{{"options":{TRUE_MENU}}}',
    # Text that runs on from the array's closing bracket.
    f'{{"options":{MENU}5}}',
    f'{{"options":{MENU}e5}}',
    f'{{"options":{MENU}.5}}',
    f'{{"options":{MENU}]}}',
    f'{{"options":{MENU}',
    # Not JSON around a known menu.
    f'\ufeff{{"options":{MENU}}}',
    f'{{"options":{MENU},}}',
    f'{{"options":{MENU}}} x',
    '{"options":[{"kind":"a]"}]}',
    '{"options":[]}',
    '{"options":[',
    f'{{"options":{MENU},"d":' + "[" * 5000 + "}",
    request_line(),
    request_line(INT_MENU),
    request_line(TRUE_MENU),
    # A hole the peer wrote itself, where the menu's key is repeated.
    f'{{"options":{MENU},"options":{HOLE}}}',
    f'{{"options":{MENU},"\\u006fptions":{HOLE}}}',
    f'{{"options":{HOLE},"options":{MENU}}}',
]
#: Each line above, and each as a request.
ADVERSARIAL_REQUESTS = [request_line()] + [
    line for raw in ADVERSARIAL for line in (raw, as_request(raw))
]


_keys = st.sampled_from(
    ['"options":', '"x\\"options":', '"\\u006fptions":', '"a":', '"type":', '"corr_id":']
)
_values = st.sampled_from(
    [MENU, MENU, TRUE_MENU, INT_MENU, HOLE, "NaN", "true", "1", "1.5", '"request"',
     f'{{"options":{MENU}}}', "[]", "{}", "7", str(10**23)]
)
_members = st.lists(st.tuples(_keys, _values).map("".join), max_size=4)
_objects = st.tuples(st.sampled_from([[], [HEAD.rstrip(",")]]), _members).map(
    lambda parts: "{" + ",".join(parts[0] + parts[1]) + "}"
)
_fragments = st.lists(
    st.sampled_from(
        [MENU, TRUE_MENU, INT_MENU, HOLE, '"options":', '"x\\"options":',
         '"\\u006fptions":', "{", "}", "[", "]", ",", "NaN", "true", "1", '"a":', " "]
    ),
    max_size=12,
).map("".join)
LINES = _objects | _fragments | st.tuples(_objects, _fragments).map("".join)


class TestTheLoaderIsJsonLoads:
    @given(st.lists(LINES, min_size=1, max_size=4))
    @settings(max_examples=400)
    def test_generated_lines_load_as_json_loads_does(self, lines):
        with fresh_table():
            assert_decodes_like_json([request_line()] + lines)

    def test_adversarial_lines_load_as_json_loads_does(self):
        assert_decodes_like_json(ADVERSARIAL_REQUESTS)

    def test_a_hit_takes_the_menu_from_the_table(self):
        payload = protocol._load_fast(request_line())
        assert type(payload["options"]) is WireMenu
        assert payload["options"] == protocol._menus[MENU]
        assert payload["options"].options == tuple(map(decode_option, json.loads(MENU)))

    @pytest.mark.parametrize("line", ADVERSARIAL, ids=range(len(ADVERSARIAL)))
    def test_decode_is_the_same_with_no_table(self, line):
        for text in (line, as_request(line)):
            got = outcome(decode_message, text)
            with mock.patch.object(protocol, "_load_fast", orjson.loads):
                expected = outcome(decode_message, text)
            assert same(got, expected), (text, got, expected)
            if got.get("class") == "RequestMessage":
                assert [decode_option(o) for o in got["options"]] == [
                    decode_option(o) for o in expected["options"]
                ]


def mutant(old: str, new: str):
    """``_load_fast`` with one line of its source changed, in the module's
    globals."""
    source = inspect.getsource(protocol._load_fast)
    assert source.count(old) == 1, f"planted-bug anchor moved: {old!r}"
    namespace: dict = {}
    exec(source.replace(old, new), vars(protocol), namespace)
    return namespace["_load_fast"]


def remember_from_payload(key: str, line: str) -> None:
    """Planted: build the entry from the line's value, not the key's text."""
    try:
        payload = json.loads(line)
    except ValueError:
        return
    if type(payload) is dict and protocol._is_menu(payload.get("options")):
        protocol._menus[key] = WireMenu(payload["options"])


def assert_decoded_menus_are_private() -> None:
    line = request_line()
    decode_message(line)
    mine = decode_message(line).options
    mine[0] = {"kind": "bounce", "ingress": 9, "egress": 9}
    mine.append({"kind": "direct"})
    again = decode_message(line).options
    assert same(again, json.loads(MENU)), again
    assert again.options == tuple(map(decode_option, json.loads(MENU)))


class TestPlantedBugs:
    def test_dropping_the_hole_guard_is_caught(self, monkeypatch):
        planted = mutant('    if "\\\\u0000" not in line:\n', "    if True:\n")
        monkeypatch.setattr(protocol, "_load_fast", planted)
        with pytest.raises(AssertionError):
            assert_decodes_like_json(ADVERSARIAL_REQUESTS)

    def test_building_the_entry_from_the_payload_is_caught(self, monkeypatch):
        monkeypatch.setattr(protocol, "remember_from_payload", remember_from_payload, raising=False)
        planted = mutant("_remember_menu(key)", "remember_from_payload(key, line)")
        monkeypatch.setattr(protocol, "_load_fast", planted)
        with pytest.raises(AssertionError):
            assert_decodes_like_json(ADVERSARIAL_REQUESTS)
        # Through the decoder: a menu of booleans would be served.
        with fresh_table():
            decode_message(request_line(f"{TRUE_MENU},\"options\":{INT_MENU}"))
            assert decode_message(request_line(TRUE_MENU)).options == json.loads(INT_MENU)

    def test_returning_the_tables_own_list_is_caught(self, monkeypatch):
        planted = mutant("WireMenu(menu, menu.options)", "menu")
        monkeypatch.setattr(protocol, "_load_fast", planted)
        with pytest.raises(AssertionError):
            assert_decoded_menus_are_private()


class TestTheTable:
    def test_mutating_a_decoded_menu_does_not_change_the_next_decode(self):
        assert_decoded_menus_are_private()

    def test_a_boolean_menu_stays_rejected_after_its_integer_twin(self):
        decode_message(request_line(INT_MENU))
        decode_message(request_line(f"{TRUE_MENU},\"options\":{INT_MENU}"))
        with pytest.raises(ProtocolError):
            decode_message(request_line(TRUE_MENU))

    def test_the_table_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(protocol, "_interned_options", {})
        with fresh_table():
            protocol._menus.clear()
            protocol._menus_held = 0
            # Seven-digit ids: every menu's text is the same length.
            first = 10**6
            text = json.dumps([encode_option(RelayOption.bounce(first))], separators=(",", ":"))
            room = MENU_INTERN_MAX // len(text)
            for relay_id in range(first, first + room + 50):
                menu = [{"kind": "bounce", "ingress": relay_id, "egress": relay_id}]
                line = encode_message(RequestMessage(3, 4, 1.5, menu, corr_id=relay_id))
                for _ in range(2):  # a miss, then a hit while there is room
                    message = decode_message(line)
                    assert message == RequestMessage(3, 4, 1.5, menu, corr_id=relay_id)
                    assert decode_option(message.options[0]) == RelayOption.bounce(relay_id)
            assert len(protocol._menus) == room
            assert protocol._menus_held == MENU_INTERN_MAX
            # Past the bound a request decodes exactly as with no table.
            assert type(message.options) is list

    def test_a_menu_that_does_not_fit_closes_the_table(self):
        two = '[{"kind":"bounce","ingress":7,"egress":7},{"kind":"direct"}]'
        protocol._menus_held = MENU_INTERN_MAX - len(two) + 1
        message = decode_message(request_line(two))
        assert type(message.options) is list
        assert protocol._menus_held == MENU_INTERN_MAX
        assert len(protocol._menus) == 1

    def test_the_policy_sees_the_same_menu_on_and_off_the_table(self):
        """Compact lines hit the table, spaced ones miss it: two controllers
        fed the same calls either way choose the same options."""

        def serve(spaced: bool) -> list:
            controller = ViaController(ViaConfig(seed=5))
            menu = json.loads(MENU)
            replies = []
            for call in range(300):
                request = RequestMessage(3, 4 + call % 3, 1.5 + call / 100, menu, corr_id=call)
                line = encode_message(request)
                if spaced:
                    line = json.dumps(json.loads(line)).encode()
                replies.append(encode_message(controller._on_request(decode_message(line))))
                chosen = decode_message(replies[-1]).option
                measurement = MeasurementMessage(
                    3, 4 + call % 3, 1.5 + call / 100, chosen, 50.0 + call % 7, 0.01, 2.0
                )
                controller._on_measurement(decode_message(encode_message(measurement)))
            return replies

        assert serve(spaced=False) == serve(spaced=True)
