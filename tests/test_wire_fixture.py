"""The wire on the socket: a committed conversation and its replies.

``tests/fixtures/wire-seed7.jsonl`` was written by
``scripts/wire_fixture.py`` (which says how to regenerate it): a v2 hello,
seeded requests and measurements over the 21-option menu, hostile lines, a
stats request and a bye, each sent line followed by the replies it drew,
byte for byte.  Pinned against it: the script sends exactly its lines, and
a fresh ``ViaController(ViaConfig(seed=7))`` on loopback answers them with
exactly its replies.  A build that spelled a float differently, renamed a
field or reordered a reply's keys would fail one or the other; a planted
float spelling shows the pin sees it.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.deployment.protocol import encode_message
from scripts.wire_fixture import FIXTURE, HOSTILE_LINES, SEED, conversation, loads, record

pytestmark = pytest.mark.asyncio


def fixture_transcript() -> list[tuple[str, bytes]]:
    return loads(FIXTURE.read_bytes())


def fixture_lines() -> list[tuple[bytes, int]]:
    """The fixture's sent lines, each with the number of replies after it."""
    lines: list[tuple[bytes, int]] = []
    for direction, line in fixture_transcript():
        if direction == "send":
            lines.append((line, 0))
        else:
            sent, n_replies = lines[-1]
            lines[-1] = (sent, n_replies + 1)
    return lines


def sends_the_fixture(lines: list[tuple[bytes, int]]) -> bool:
    return lines == fixture_lines()


def respelled_floats(message) -> bytes:
    """``encode_message``, each float then written as ``%.17e``: the same
    values, spelled as another encoder might spell them."""
    return re.sub(
        rb"(?<=[:,\[])-?\d+\.\d+(?:[eE][-+]?\d+)?",
        lambda m: format(float(m.group()), ".17e").encode("ascii"),
        encode_message(message),
    )


class TestWireFixture:
    def test_the_fixture_is_small(self):
        assert FIXTURE.stat().st_size < 1_000_000

    def test_the_fixture_holds_every_shape(self):
        transcript = fixture_transcript()
        sent = [json.loads(line) if line not in HOSTILE_LINES else None
                for direction, line in transcript if direction == "send"]
        received = [json.loads(line)["type"] for direction, line in transcript if direction == "recv"]
        assert sent[0] == {"client_id": 1, "site": "site-1", "protocol": 2, "type": "hello",
                           "corr_id": 1}
        assert sent[-1]["type"] == "bye"
        assert sent.count(None) == len(HOSTILE_LINES)
        types = [message["type"] for message in sent if message is not None]
        assert types.count("request") == types.count("measurement") > 0
        assert all(len(m["options"]) == 21 for m in sent if m is not None and m["type"] == "request")
        assert received[0] == "hello_ack" and received[-1] == "stats"
        assert received.count("assign") == types.count("request")
        assert received.count("error") == len(HOSTILE_LINES)

    def test_the_script_sends_the_fixture_lines(self):
        assert sends_the_fixture(conversation(SEED))

    def test_a_fresh_controller_answers_with_the_fixture_replies(self):
        assert asyncio.run(record(SEED, fixture_lines())) == fixture_transcript()

    def test_a_changed_float_spelling_fails_the_pin(self):
        assert not sends_the_fixture(conversation(SEED, encode=respelled_floats))
