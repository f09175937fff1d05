"""Build the pinned wire-transcript fixture from a seed.

The wire is pinned by a committed conversation, not by a description:
``tests/test_wire_fixture.py`` requires this script to send exactly the
committed lines, and requires a fresh ``ViaController(ViaConfig(seed=7))``
on loopback to answer them with exactly the committed replies.

The conversation, on one connection, in order:

* a v2 hello (``"protocol":2``), answered by a ``hello_ack``;
* :data:`N_CALLS` seeded calls over the 21-option menu the ``perf/`` wire
  workloads send (direct, 8 bounces, 6 transit pairs in both
  orientations): a request with a ``corr_id``, answered by an ``assign``,
  then the call's measurement, which gets no reply.  Their times span
  :data:`SPAN_HOURS`, so the controller refreshes its windows on the way;
* :data:`HOSTILE_LINES` spread among the calls -- malformed JSON, an
  unknown type, a request with a bad ``corr_id``, a request with empty
  ``options`` -- each answered by an ``error``;
* a ``stats_request`` (the counters, all integers), then a ``bye``, after
  which the server closes the connection.

``tests/fixtures/wire-seed7.jsonl`` holds one JSON object per wire line,
``{"send": <line>}`` or ``{"recv": <line>}``, in the order they crossed the
socket; each line is the exact text, newline included.

Regenerate the fixture only when a wire format changes on purpose:

    PYTHONPATH=src python scripts/wire_fixture.py

Uses the standard library and ``repro`` alone.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "wire-seed7.jsonl"

SEED = 7
N_CLIENTS = 6
N_CALLS = 60
#: The calls' times spread evenly over this span: several refresh windows.
SPAN_HOURS = 40.0
#: A reply that has not come by then is a missing reply.
REPLY_TIMEOUT_S = 5.0

#: Lines no well-behaved client sends, each answered by one ``error``.
HOSTILE_LINES = (
    b"{not json}\n",
    b'{"type":"nonsense","corr_id":900}\n',
    b'{"type":"request","src_id":1,"dst_id":2,"t_hours":1.5,'
    b'"options":[{"kind":"direct"}],"corr_id":"seven"}\n',
    b'{"type":"request","src_id":1,"dst_id":2,"t_hours":1.5,"options":[],"corr_id":901}\n',
)


def menu() -> list:
    """The ``perf/`` wire workloads' 21-option menu: direct, 8 bounces and
    6 transit pairs, each in both orientations."""
    from repro.netmodel.options import DIRECT, RelayOption

    options = [DIRECT, *(RelayOption.bounce(r) for r in range(1, 9))]
    for j in range(6):
        options += [RelayOption.transit(j + 1, j + 2), RelayOption.transit(j + 2, j + 1)]
    return options


def conversation(seed: int = SEED, encode: Callable | None = None) -> list[tuple[bytes, int]]:
    """The lines the client sends, each with the number of reply lines it
    draws.  ``encode`` serialises a message (``encode_message`` unless
    given)."""
    from repro.deployment.protocol import (
        ByeMessage,
        HelloMessage,
        MeasurementMessage,
        RequestMessage,
        StatsRequestMessage,
        encode_message,
        encode_option,
    )

    encode = encode or encode_message
    rng = random.Random(seed)
    options = [encode_option(option) for option in menu()]
    hostile_at = {N_CALLS * (i + 1) // (len(HOSTILE_LINES) + 1): line
                  for i, line in enumerate(HOSTILE_LINES)}
    lines = [(encode(HelloMessage(client_id=1, site="site-1", protocol=2, corr_id=1)), 1)]
    corr_id = 1
    for i in range(N_CALLS):
        if i in hostile_at:
            lines.append((hostile_at[i], 1))
        src, dst = rng.sample(range(1, N_CLIENTS + 1), 2)
        t_hours = SPAN_HOURS * i / N_CALLS + rng.uniform(0.0, 0.5)
        corr_id += 1
        lines.append((encode(RequestMessage(
            src_id=src, dst_id=dst, t_hours=t_hours, options=options, corr_id=corr_id)), 1))
        corr_id += 1
        lines.append((encode(MeasurementMessage(
            src_id=src, dst_id=dst, t_hours=t_hours, option=rng.choice(options),
            rtt_ms=rng.uniform(80.0, 400.0), loss_rate=rng.uniform(0.0, 0.05),
            jitter_ms=rng.uniform(1.0, 30.0), corr_id=corr_id)), 0))
    lines.append((encode(StatsRequestMessage(corr_id=corr_id + 1)), 1))
    lines.append((encode(ByeMessage(client_id=1)), 0))
    return lines


async def exchange(port: int, lines: list[tuple[bytes, int]]) -> list[tuple[str, bytes]]:
    """Send ``lines`` to the server on ``port``, reading each one's replies
    before the next; returns the transcript as ``(direction, line)``.
    Whatever the server sends after the last line, up to its close, is
    read too."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    transcript: list[tuple[str, bytes]] = []
    try:
        for line, n_replies in lines:
            writer.write(line)
            await writer.drain()
            transcript.append(("send", line))
            for _ in range(n_replies):
                reply = await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT_S)
                transcript.append(("recv", reply))
        rest = await asyncio.wait_for(reader.read(), REPLY_TIMEOUT_S)
        transcript += [("recv", reply) for reply in rest.splitlines(keepends=True)]
    finally:
        writer.close()
    return transcript


async def record(seed: int = SEED, lines: list[tuple[bytes, int]] | None = None):
    """Run the conversation against a fresh ``ViaController(ViaConfig(seed))``
    on loopback; returns its transcript."""
    from repro.core.policy import ViaConfig
    from repro.deployment.controller import ViaController

    async with ViaController(ViaConfig(seed=seed)) as controller:
        return await exchange(controller.port, lines or conversation(seed))


def dumps(transcript: list[tuple[str, bytes]]) -> bytes:
    """The fixture file's bytes: one ``{"send"|"recv": line}`` per line."""
    return b"".join(
        json.dumps({direction: line.decode("utf-8")}).encode("ascii") + b"\n"
        for direction, line in transcript
    )


def loads(data: bytes) -> list[tuple[str, bytes]]:
    """The transcript in a fixture file's bytes."""
    transcript = []
    for text in data.splitlines():
        ((direction, line),) = json.loads(text).items()
        transcript.append((direction, line.encode("utf-8")))
    return transcript


def main() -> int:
    data = dumps(asyncio.run(record()))
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_bytes(data)
    print(f"wrote {FIXTURE.relative_to(REPO_ROOT)} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
