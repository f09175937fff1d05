"""Asyncio frontend tests: protocol v2, admission ladder, hostile clients.

Covers the overload-resilience contract end to end over real localhost
TCP: correlation-id pipelining with out-of-order completion, v1
back-compat conformance (the PR 1 dialect against the v2 server),
hardened line framing (oversized and malformed input, decodable
requests with hostile ``options``, slow-loris peers, mid-request
disconnects), the admission ladder
(admit -> degrade-to-cache -> explicit shed, deadline sheds), and the
differential check that v2-served assignments match v1 for the same
seed.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
import time

import pytest

from repro.core.policy import ViaConfig
from repro.deployment import (
    AdmissionConfig,
    AdmissionController,
    AsyncViaClient,
    FaultPlan,
    RetryPolicy,
    ViaController,
)
from repro.deployment import TestbedClient as AgentClient
from repro.deployment.aserver import ViaServer
from repro.deployment.protocol import (
    AssignMessage,
    MeasurementMessage,
    ProtocolError,
    RequestMessage,
    decode_message,
    decode_option,
    encode_message,
    encode_option,
)
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.store import read_wal

pytestmark = pytest.mark.asyncio

OPTIONS = [RelayOption.bounce(0), RelayOption.bounce(1), RelayOption.transit(0, 1)]

FAST_RETRY = RetryPolicy(
    max_attempts=2,
    request_timeout_s=0.25,
    base_delay_s=0.01,
    max_delay_s=0.02,
    deadline_s=2.0,
)


def run(coro):
    return asyncio.run(coro)


def wire(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode("utf-8")


def compact(obj: dict) -> bytes:
    """``obj`` as ``encode_message`` writes it (no spaces)."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


async def raw_connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


async def read_json(reader: asyncio.StreamReader) -> dict:
    line = await asyncio.wait_for(reader.readline(), timeout=5.0)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


#: Option objects of known kind whose relay ids are not what the kind
#: takes: unhashable, present on a direct path, or not integers.
HOSTILE_RELAY_IDS = [
    {"kind": "bounce", "ingress": [1], "egress": [1]},
    {"kind": "direct", "ingress": 1},
    {"kind": "bounce", "ingress": "a", "egress": "a"},
]

#: ``options`` payloads that are not a non-empty list of option objects
#: of known kind with relay ids to match.
HOSTILE_OPTIONS = [
    [], [1], 7, "direct", [{"kind": "wormhole"}],
    [{"kind": "direct"}, HOSTILE_RELAY_IDS[0]],
    [HOSTILE_RELAY_IDS[1]],
    [HOSTILE_RELAY_IDS[2], {"kind": "direct"}],
]


#: Request scalars that are not an integer id, a finite time >= 0 or an
#: integer correlation id -- as JSON text, so ``1e999`` goes out as written.
HOSTILE_REQUEST_FIELDS = [
    ("t_hours", "-1"),
    ("t_hours", '"abc"'),
    ("t_hours", "1e999"),
    ("src_id", "[1]"),
    ("src_id", "true"),
    ("dst_id", '"x"'),
    ("corr_id", '"seven"'),
    ("corr_id", "[7]"),
]

#: Lines that used to raise out of the reader loop: hello fields the
#: handler hashes and compares, an unhashable ``type``, bytes that are
#: not UTF-8, and nesting deeper than the JSON parser's stack.
HOSTILE_LINES = [
    b'{"type":"hello","client_id":[1],"site":"x","protocol":2}\n',
    b'{"type":"hello","client_id":1,"site":"x","protocol":"2"}\n',
    b'{"type":"hello","client_id":1,"site":["x"]}\n',
    b'{"type":"bye","client_id":{}}\n',
    b'{"type":"resilience","client_id":[1],"n_retries":"many"}\n',
    b'{"type":[1]}\n',
    b"\xff\xfe\n",
    b"[" * 5000 + b"\n",
]

#: Measurement fields that are not an option object, an integer id or a
#: finite real number in range.
HOSTILE_MEASUREMENT_FIELDS = [
    ("option", [1]),
    ("option", {"kind": "wormhole"}),
    *(("option", option) for option in HOSTILE_RELAY_IDS),
    ("rtt_ms", "abc"),
    ("rtt_ms", float("nan")),
    ("loss_rate", float("inf")),
    ("jitter_ms", None),
    ("t_hours", True),
    ("t_hours", 10**400),
    ("t_hours", -1.0),
    ("loss_rate", 1.5),
    ("src_id", 1.5),
    ("dst_id", "7"),
]


def measurement_payload(corr_id: int | None, rtt_ms: float = 80.0) -> dict:
    payload = {
        "type": "measurement",
        "src_id": 0,
        "dst_id": 1,
        "t_hours": 0.1,
        "option": {"kind": "bounce", "ingress": 0, "egress": 0},
        "rtt_ms": rtt_ms,
        "loss_rate": 0.01,
        "jitter_ms": 4.0,
    }
    if corr_id is not None:
        payload["corr_id"] = corr_id
    return payload


def request_payload(corr_id: int | None, t_hours: float = 0.1) -> dict:
    payload = {
        "type": "request",
        "src_id": 0,
        "dst_id": 1,
        "t_hours": t_hours,
        "options": [
            {"kind": o.kind.value, "ingress": o.ingress, "egress": o.egress}
            for o in OPTIONS
        ],
    }
    if corr_id is not None:
        payload["corr_id"] = corr_id
    return payload


def bare_direct_request(corr_id: int) -> dict:
    """A request offering only direct, spelled without relay ids."""
    return {**request_payload(corr_id), "options": [{"kind": "direct"}]}


def assert_degrades_bare_direct(cached_assignment) -> None:
    """After serving direct to a client that spells it ``{"kind":"direct"}``,
    ``cached_assignment`` answers that client's next request from the
    cache -- decoded off the menu table (spaced JSON) and on it."""
    controller = ViaController(ViaConfig(seed=4))
    line = compact(bare_direct_request(7))
    served = controller._on_request(decode_message(line))
    assert served.option == encode_option(DIRECT)
    for again in (wire(bare_direct_request(7)), line):
        reply = cached_assignment(controller, decode_message(again))
        assert reply is not None, "the degrade rung missed a cached direct"
        assert (reply.option, reply.corr_id) == (encode_option(DIRECT), 7)


class TestProtocolNegotiation:
    def test_v2_hello_is_acked_with_corr_id(self):
        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US",
                          "protocol": 2, "corr_id": 7})
                )
                await writer.drain()
                ack = await read_json(reader)
                assert ack["type"] == "hello_ack"
                assert ack["protocol"] == 2
                assert ack["corr_id"] == 7
                assert ack["max_line_bytes"] > 0
                writer.close()

        run(scenario())

    def test_v1_hello_gets_no_ack_and_idless_replies(self):
        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                # The PR 1 dialect: no protocol field, no corr ids.
                writer.write(wire({"type": "hello", "client_id": 0, "site": "US"}))
                writer.write(wire(request_payload(None)))
                await writer.drain()
                reply = await read_json(reader)
                # First reply is the assign itself -- no ack interleaved,
                # and no corr_id key on the wire (byte-compatible v1).
                assert reply["type"] == "assign"
                assert "corr_id" not in reply
                writer.close()

        run(scenario())

    def test_v1_testbed_client_round_trips(self):
        async def scenario():
            async with ViaController(ViaConfig(seed=3)) as controller:
                async with AgentClient(
                    0, "US", "127.0.0.1", controller.port, protocol=1
                ) as client:
                    choice = await client.request_assignment(1, OPTIONS, t_hours=0.5)
                    assert choice in OPTIONS
                    assert client.protocol == 1
                    stats = await client.fetch_stats()
                    assert stats.n_requests == 1

        run(scenario())

    def test_v2_client_negotiates(self):
        async def scenario():
            async with ViaController(ViaConfig(seed=3)) as controller:
                async with AgentClient(
                    0, "US", "127.0.0.1", controller.port
                ) as client:
                    assert await client.request_assignment(1, OPTIONS, 0.5) in OPTIONS
                    assert client.protocol == 2

        run(scenario())


class TestPipelining:
    def test_burst_completes_out_of_order(self):
        async def scenario():
            faults = FaultPlan(stall_windows=((4.9, 5.1),), stall_s=0.2)
            async with ViaController(faults=faults) as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                await writer.drain()
                assert (await read_json(reader))["type"] == "hello_ack"
                # Request 1 lands in the stall window (0.2 s of policy
                # time); request 2 does not.  Both pipeline on the one
                # connection; the later request must finish first.
                writer.write(wire(request_payload(1, t_hours=5.0)))
                writer.write(wire(request_payload(2, t_hours=8.0)))
                await writer.drain()
                first = await read_json(reader)
                second = await read_json(reader)
                assert [first["corr_id"], second["corr_id"]] == [2, 1]
                assert {first["type"], second["type"]} == {"assign"}
                writer.close()

        run(scenario())

    def test_concurrent_assigns_on_one_client(self):
        async def scenario():
            async with ViaController(ViaConfig(seed=5)) as controller:
                async with AsyncViaClient(
                    0, "US", "127.0.0.1", controller.port
                ) as client:
                    results = await asyncio.gather(
                        *(
                            client.assign(1, OPTIONS, 0.1 + i * 0.01, src_id=i)
                            for i in range(20)
                        )
                    )
                    assert len(results) == 20
                    assert all(r.option in OPTIONS for r in results)
                    assert controller.n_requests == 20

        run(scenario())


class TestHostileClients:
    def test_oversized_line_v2_gets_error_and_connection_survives(self):
        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                await writer.drain()
                assert (await read_json(reader))["type"] == "hello_ack"
                writer.write(b"x" * (80 * 1024) + b"\n")
                await writer.drain()
                error = await read_json(reader)
                assert error["type"] == "error"
                assert error["code"] == "oversized"
                # The stream resynchronised: the same connection still
                # serves real requests.
                writer.write(wire(request_payload(9)))
                await writer.drain()
                reply = await read_json(reader)
                assert reply["type"] == "assign" and reply["corr_id"] == 9
                writer.close()

        run(scenario())

    def test_oversized_line_v1_closes_cleanly(self):
        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(wire({"type": "hello", "client_id": 0, "site": "US"}))
                writer.write(b"y" * (80 * 1024) + b"\n")
                await writer.drain()
                # v1 has no per-request error vocabulary: clean close.
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()
                # The server survived; a fresh client is served normally.
                async with AgentClient(
                    1, "GB", "127.0.0.1", controller.port
                ) as client:
                    assert await client.request_assignment(2, OPTIONS, 0.2) in OPTIONS

        run(scenario())

    def test_malformed_line_v2_gets_error_and_connection_survives(self):
        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                await writer.drain()
                assert (await read_json(reader))["type"] == "hello_ack"
                for bad in (b"{not json}\n", b'{"type": "nonsense"}\n',
                            b'{"type": "request"}\n'):
                    writer.write(bad)
                    await writer.drain()
                    error = await read_json(reader)
                    assert error["type"] == "error"
                    assert error["code"] == "malformed"
                writer.write(wire(request_payload(3)))
                await writer.drain()
                assert (await read_json(reader))["type"] == "assign"
                writer.close()

        run(scenario())

    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("options", HOSTILE_OPTIONS, ids=repr)
    def test_hostile_options_are_rejected_as_malformed(
        self, options, protocol, caplog
    ):
        """A decodable request whose ``options`` is not a list of option
        objects is a protocol error with a defined answer -- a correlated
        ``malformed`` error on v2, a drop on v1 -- never a policy error,
        a dead worker or a torn-down connection."""

        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                hello = {"type": "hello", "client_id": 0, "site": "US"}
                if protocol == 2:
                    hello["protocol"] = 2
                writer.write(wire(hello))
                poison = request_payload(41 if protocol == 2 else None)
                poison["options"] = options
                writer.write(wire(poison))
                # The same connection must still serve the next request;
                # on v1 (in-order replies, no error vocabulary) its assign
                # being the *first* reply proves the poison was dropped.
                writer.write(wire(request_payload(42 if protocol == 2 else None)))
                await writer.drain()
                if protocol == 2:
                    assert (await read_json(reader))["type"] == "hello_ack"
                    error = await read_json(reader)
                    assert (error["type"], error["code"]) == ("error", "malformed")
                    assert error["corr_id"] == 41
                reply = await read_json(reader)
                assert reply["type"] == "assign"
                assert reply.get("corr_id") == (42 if protocol == 2 else None)
                assert controller._obs_protocol_errors.value == 1
                assert controller.n_policy_errors == 0
                writer.close()

        with caplog.at_level("ERROR"):
            run(scenario())
        assert not [r for r in caplog.records if r.levelname == "ERROR"], caplog.text

    def test_poison_request_does_not_disturb_pipelined_neighbours(self):
        async def scenario():
            async with ViaController(ViaConfig(seed=3)) as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                for corr_id in range(1, 9):
                    payload = request_payload(corr_id, t_hours=0.1 + corr_id * 0.01)
                    if corr_id == 4:
                        payload["options"] = [1]
                    writer.write(wire(payload))
                await writer.drain()
                assert (await read_json(reader))["type"] == "hello_ack"
                replies = [await read_json(reader) for _ in range(8)]
                by_id = {r["corr_id"]: r for r in replies}
                assert sorted(by_id) == list(range(1, 9))
                assert (by_id[4]["type"], by_id[4]["code"]) == ("error", "malformed")
                assert all(
                    by_id[i]["type"] == "assign" for i in range(1, 9) if i != 4
                )
                assert controller.n_policy_errors == 0
                writer.close()

        run(scenario())

    def test_poison_request_is_not_wal_logged(self, tmp_path):
        async def scenario():
            async with ViaController(store=tmp_path / "store") as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                writer.write(wire(request_payload(1)))
                await writer.drain()
                assert (await read_json(reader))["type"] == "hello_ack"
                assert (await read_json(reader))["type"] == "assign"
                before = controller.store.records_after(0).records
                assert [r["kind"] for r in before] == ["hello", "request"]
                for corr_id, options in enumerate(HOSTILE_OPTIONS, start=2):
                    poison = request_payload(corr_id)
                    poison["options"] = options
                    writer.write(wire(poison))
                    await writer.drain()
                    assert (await read_json(reader))["code"] == "malformed"
                assert controller.store.records_after(0).records == before
                writer.close()

        run(scenario())

    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize(
        "field,value", HOSTILE_MEASUREMENT_FIELDS, ids=lambda v: repr(v)[:24]
    )
    def test_hostile_measurement_is_rejected_before_the_wal(
        self, field, value, protocol, tmp_path, caplog, poll_until
    ):
        """A decodable measurement with a hostile field is answered like
        a malformed line -- a correlated error on v2, a drop on v1 --
        and never reaches the WAL (where every later recovery would
        replay it) or the policy; a valid one right behind it is learned."""

        async def scenario():
            async with ViaController(store=tmp_path / "store") as controller:
                reader, writer = await raw_connect(controller.port)
                hello = {"type": "hello", "client_id": 0, "site": "US"}
                if protocol == 2:
                    hello["protocol"] = 2
                writer.write(wire(hello))
                await writer.drain()
                if protocol == 2:
                    assert (await read_json(reader))["type"] == "hello_ack"
                await poll_until(lambda: controller.site_labels)
                before = controller.store.records_after(0).records
                assert [r["kind"] for r in before] == ["hello"]
                poison = measurement_payload(41 if protocol == 2 else None)
                poison[field] = value
                writer.write(wire(poison))
                writer.write(wire(measurement_payload(None)))
                await writer.drain()
                if protocol == 2:
                    error = await read_json(reader)
                    assert (error["type"], error["code"]) == ("error", "malformed")
                    assert error["corr_id"] == 41
                assert await poll_until(lambda: controller.n_measurements) == 1
                after = controller.store.records_after(0).records
                assert after[: len(before)] == before
                assert [r["kind"] for r in after[len(before):]] == ["measurement"]
                assert controller.policy.history.total_calls() == 1
                assert controller._obs_protocol_errors.value == 1
                assert controller.n_policy_errors == 0
                writer.close()

        with caplog.at_level("ERROR"):
            run(scenario())
        assert not [r for r in caplog.records if r.levelname == "ERROR"], caplog.text

    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("field,text", HOSTILE_REQUEST_FIELDS)
    def test_hostile_request_scalars_are_rejected_before_the_wal(
        self, field, text, protocol, tmp_path, caplog
    ):
        """A request whose ids, time or correlation id are not of their
        wire type fails at decode -- before it is counted, admitted,
        WAL-logged or shown to the policy.  v2 answers ``malformed`` and
        still echoes a well-formed ``corr_id`` so the caller fails fast;
        v1 drops the line; the connection serves the next request."""

        async def scenario():
            async with ViaController(store=tmp_path / "store") as controller:
                reader, writer = await raw_connect(controller.port)
                hello = {"type": "hello", "client_id": 0, "site": "US"}
                if protocol == 2:
                    hello["protocol"] = 2
                writer.write(wire(hello))
                poison = request_payload(41)
                poison[field] = "@hostile@"
                writer.write(wire(poison).replace(b'"@hostile@"', text.encode()))
                writer.write(wire(request_payload(42 if protocol == 2 else None)))
                await writer.drain()
                if protocol == 2:
                    assert (await read_json(reader))["type"] == "hello_ack"
                    error = await read_json(reader)
                    assert (error["type"], error["code"]) == ("error", "malformed")
                    assert error.get("corr_id") == (None if field == "corr_id" else 41)
                reply = await read_json(reader)
                assert reply["type"] == "assign"
                assert reply.get("corr_id") == (42 if protocol == 2 else None)
                assert controller._obs_protocol_errors.value == 1
                assert controller.n_requests == 1
                assert controller.n_policy_errors == 0
                records = controller.store.records_after(0).records
                assert [r["kind"] for r in records] == ["hello", "request"]
                writer.close()

        with caplog.at_level("ERROR"):
            run(scenario())
        assert not [r for r in caplog.records if r.levelname == "ERROR"], caplog.text

    @pytest.mark.parametrize("protocol", [1, 2])
    @pytest.mark.parametrize("line", HOSTILE_LINES, ids=lambda line: repr(line[:40]))
    def test_hostile_line_never_escapes_the_reader_loop(
        self, line, protocol, tmp_path, caplog
    ):
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with ViaController(store=tmp_path / "store") as controller:
                reader, writer = await raw_connect(controller.port)
                if protocol == 2:
                    writer.write(
                        wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                    )
                writer.write(line)
                writer.write(wire({"type": "stats_request", "corr_id": 5}))
                await writer.drain()
                if protocol == 2:
                    assert (await read_json(reader))["type"] == "hello_ack"
                    error = await read_json(reader)
                    assert (error["type"], error["code"]) == ("error", "malformed")
                stats = await read_json(reader)
                assert (stats["type"], stats["corr_id"]) == ("stats", 5)
                assert stats["n_policy_errors"] == 0
                assert controller._obs_protocol_errors.value == 1
                records = controller.store.records_after(0).records
                assert [r["kind"] for r in records] == ["hello"] * (protocol == 2)
                writer.close()
            assert not unhandled, unhandled

        with caplog.at_level("ERROR"):
            run(scenario())
        assert not [r for r in caplog.records if r.levelname == "ERROR"], caplog.text

    def test_default_reply_never_raises_on_a_decoded_request(self):
        # A hostile menu never becomes a message, so it never reaches the
        # default reply: both of its callers hold a decoded request.
        for options in HOSTILE_OPTIONS:
            with pytest.raises(ProtocolError):
                decode_message(wire({**request_payload(7), "options": options}))
        direct = {"kind": "direct"}
        relayed = request_payload(7)["options"]
        for options, expected in [
            (relayed, relayed[0]),
            ([*relayed, direct], direct),
            ([*relayed, encode_option(DIRECT)], encode_option(DIRECT)),
        ]:
            payload = {**request_payload(7), "options": options}
            # Spaced JSON misses the menu table; compact JSON hits it on
            # the second decode.
            for line in (wire(payload), compact(payload), compact(payload)):
                reply = ViaController._default_reply(decode_message(line))
                assert (reply.option, reply.corr_id) == (expected, 7)

    def test_slow_loris_is_disconnected_by_idle_timeout(self):
        async def scenario():
            async with ViaController(idle_timeout_s=0.1) as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                await writer.drain()
                assert (await read_json(reader))["type"] == "hello_ack"
                # Dribble half a message and stall, holding the line open.
                writer.write(b'{"type": "request", "src_id"')
                await writer.drain()
                # The server reclaims the connection instead of waiting
                # forever on the partial line.
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
                writer.close()

        run(scenario())

    def test_mid_request_disconnect_leaves_server_healthy(self, poll_until):
        async def scenario():
            async with ViaController() as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 5, "site": "US", "protocol": 2})
                )
                writer.write(wire(request_payload(1)))
                await writer.drain()
                writer.close()  # vanish before reading any reply
                # The server notices the dead socket asynchronously; poll
                # instead of betting a fixed sleep beats the reader task.
                await poll_until(lambda: 5 not in controller.client_sites)
                assert 5 not in controller.client_sites  # live set updated
                async with AgentClient(
                    6, "GB", "127.0.0.1", controller.port
                ) as client:
                    assert await client.request_assignment(1, OPTIONS, 0.3) in OPTIONS
                assert controller.n_policy_errors == 0

        run(scenario())


class TestAdmissionLadder:
    def test_forced_overload_sheds_v2_explicitly(self):
        async def scenario():
            faults = FaultPlan(overload_windows=((1.0, 2.0),))
            async with ViaController(faults=faults) as controller:
                async with AsyncViaClient(
                    0, "US", "127.0.0.1", controller.port
                ) as client:
                    shed = await client.assign(1, OPTIONS, 1.5)
                    assert shed.shed and shed.reason == "fault"
                    assert shed.option == OPTIONS[0]  # client-side default
                    served = await client.assign(1, OPTIONS, 2.5)
                    assert not served.shed
                    assert client.stats.n_sheds == 1
                assert controller.admission.n_shed == 1

        run(scenario())

    def test_forced_overload_assigns_default_path_for_v1(self):
        async def scenario():
            faults = FaultPlan(overload_windows=((1.0, 2.0),))
            async with ViaController(faults=faults) as controller:
                async with AgentClient(
                    0, "US", "127.0.0.1", controller.port, protocol=1
                ) as client:
                    # v1 has no shed vocabulary: the server answers with
                    # the default path, so even legacy clients never hang.
                    choice = await client.request_assignment(1, OPTIONS, 1.5)
                    assert choice == OPTIONS[0]
                assert controller.admission.n_shed == 1

        run(scenario())

    def test_resilient_client_counts_shed_and_falls_back(self):
        async def scenario():
            faults = FaultPlan(overload_windows=((0.0, 100.0),))
            async with ViaController(faults=faults) as controller:
                async with AgentClient(
                    0, "US", "127.0.0.1", controller.port, retry=FAST_RETRY
                ) as client:
                    choice = await client.request_assignment(1, OPTIONS, 0.5)
                    assert choice == OPTIONS[0]
                    # One attempt, no retry storm into the overload:
                    assert client.stats.n_sheds == 1
                    assert client.stats.n_fallbacks == 1
                    assert client.stats.n_retries == 0
                    stats = await client.fetch_stats()
                    assert stats.n_shed == 1

        run(scenario())

    def test_rate_exhaustion_degrades_to_cached_assignment(self):
        async def scenario():
            # One token, negligible refill: the first request is admitted,
            # the second degrades and is answered from the pair's cache.
            admission = AdmissionConfig(rate=1e-9, burst=1.0)
            async with ViaController(
                ViaConfig(seed=4), admission=admission
            ) as controller:
                async with AsyncViaClient(
                    0, "US", "127.0.0.1", controller.port
                ) as client:
                    first = await client.assign(1, OPTIONS, 0.1)
                    second = await client.assign(1, OPTIONS, 0.2)
                    assert not first.shed and not second.shed
                    assert second.option == first.option  # stale-but-instant
                    third = await client.assign(9, OPTIONS, 0.3, src_id=8)
                    # Unknown pair: nothing cached, one more rung down.
                    assert third.shed and third.reason == "rate"
                assert controller.admission.n_admitted == 1
                assert controller.admission.n_degraded == 1
                assert controller.admission.n_shed == 1

        run(scenario())

    def test_degrade_rung_serves_a_direct_offered_without_ids(self):
        """``{"kind":"direct"}`` is direct on the wire, so the pair's
        cached direct assignment is among the offered options."""
        assert_degrades_bare_direct(ViaController.cached_assignment)

        async def scenario():
            admission = AdmissionConfig(rate=1e-9, burst=1.0)
            async with ViaController(admission=admission) as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                assert (await read_json(reader))["type"] == "hello_ack"
                replies = []
                for corr_id in (1, 2):  # one at a time: the first fills the cache
                    writer.write(compact(bare_direct_request(corr_id)))
                    replies.append(await read_json(reader))
                assert [(r["type"], r["corr_id"]) for r in replies] == [
                    ("assign", 1), ("assign", 2)
                ]
                assert replies[1]["option"] == encode_option(DIRECT)
                assert controller.admission.n_degraded == 1
                writer.close()

        run(scenario())

    def test_comparing_encoded_dicts_is_caught(self):
        """Planted bug: the degrade rung as it was, matching the cached
        assignment's encoded dict against the client's dicts."""

        def dict_comparison(controller, message):
            cached = controller._assign_cache.get((message.src_id, message.dst_id))
            encoded = None if cached is None else encode_option(cached)
            if encoded is None or encoded not in message.options:
                return None
            return AssignMessage(option=encoded, corr_id=message.corr_id)

        with pytest.raises(AssertionError):
            assert_degrades_bare_direct(dict_comparison)

    def test_deadline_expiry_sheds_instead_of_serving_late(self):
        async def scenario():
            admission = AdmissionConfig(queue_timeout_s=0.05)
            async with ViaController(admission=admission) as controller:
                assign = controller.policy.assign

                def slow_assign(call, options):
                    if call.t_hours == 5.0:
                        time.sleep(0.3)  # a genuinely slow, synchronous policy
                    return assign(call, options)

                controller.policy.assign = slow_assign
                reader, writer = await raw_connect(controller.port)
                writer.write(
                    wire({"type": "hello", "client_id": 0, "site": "US", "protocol": 2})
                )
                assert (await read_json(reader))["type"] == "hello_ack"
                # One write: both requests land in the same serve pass.
                writer.write(
                    wire(request_payload(1, t_hours=5.0))
                    + wire(request_payload(2, t_hours=8.0))
                )
                replies = [await read_json(reader) for _ in range(2)]
                by_corr = {reply["corr_id"]: reply for reply in replies}
                # The slow request was served; the one queued behind it
                # blew its deadline and got an explicit shed.
                assert by_corr[1]["type"] == "assign"
                assert by_corr[2]["type"] == "shed"
                assert by_corr[2]["reason"] == "deadline"
                writer.close()

        run(scenario())

    def test_every_non_admitted_request_gets_an_explicit_answer(self):
        async def scenario():
            faults = FaultPlan(overload_windows=((0.0, 100.0),))
            async with ViaController(faults=faults) as controller:
                async with AsyncViaClient(
                    0, "US", "127.0.0.1", controller.port
                ) as client:
                    results = await asyncio.gather(
                        *(
                            client.assign(1, OPTIONS, 0.1, src_id=i, timeout=5.0)
                            for i in range(50)
                        )
                    )
                    # Zero silent timeouts: all 50 resolved, all shed.
                    assert len(results) == 50
                    assert all(r.shed for r in results)
                assert controller.admission.n_shed == 50

        run(scenario())


class TestAdmissionUnit:
    """The ladder as a pure function of its three signals and the clock."""

    def make(self, **overrides):
        now = [0.0]
        config = AdmissionConfig(
            max_queue_depth=4,
            degrade_queue_depth=2,
            queue_timeout_s=1.0,
            rate=overrides.pop("rate", 10.0),
            burst=overrides.pop("burst", 2.0),
            **overrides,
        )
        return AdmissionController(config, clock=lambda: now[0]), now

    def test_token_bucket_admits_then_degrades_then_refills(self):
        ctrl, now = self.make()
        assert ctrl.decide(0).admitted
        assert ctrl.decide(0).admitted
        decision = ctrl.decide(0)
        assert decision.degraded and decision.reason == "rate"
        now[0] += 0.2  # 10/s refill -> 2 tokens back
        assert ctrl.decide(0).admitted

    def test_queue_depth_ladder(self):
        ctrl, _ = self.make(rate=None, burst=256.0)
        assert ctrl.decide(1).admitted
        soft = ctrl.decide(2)
        assert soft.degraded and soft.reason == "queue_depth"
        hard = ctrl.decide(4)
        assert hard.shed and hard.reason == "queue_full"

    def test_queue_latency_signal_sheds_up_front(self):
        ctrl, _ = self.make(rate=None, burst=256.0)
        ctrl.observe_service(0.6)
        assert ctrl.estimated_wait_s(3) == pytest.approx(1.8)
        decision = ctrl.decide(3)
        assert decision.shed and decision.reason == "queue_latency"

    def test_connection_signals(self):
        ctrl, _ = self.make(
            rate=None, burst=256.0, max_connections=2, degrade_connections=2
        )
        assert ctrl.connection_opened()
        assert ctrl.connection_opened()
        assert not ctrl.connection_opened()  # refused at the door
        assert ctrl.n_connections_refused == 1
        decision = ctrl.decide(0)  # soft signal: degrade requests
        assert decision.degraded and decision.reason == "connections"
        ctrl.connection_closed()
        assert ctrl.n_connections == 1

    def test_forced_overload_short_circuits(self):
        ctrl, _ = self.make()
        ctrl.forced_overload = True
        decision = ctrl.decide(0)
        assert decision.shed and decision.reason == "fault"

    def test_for_relay_fleet_rate_derivation(self):
        capped = AdmissionConfig.for_relay_fleet(10, per_relay_cap=0.15)
        # 200/s per relay, busiest relay carries <= 15% of assignments:
        # admissible total is 200/0.15, below the fleet's 2000/s.
        assert capped.rate == pytest.approx(200.0 / 0.15)
        uncapped = AdmissionConfig.for_relay_fleet(10, per_relay_cap=None)
        assert uncapped.rate == pytest.approx(200.0)  # one relay's worth
        small = AdmissionConfig.for_relay_fleet(2, per_relay_cap=0.15)
        assert small.rate == pytest.approx(2 * 200.0)  # fleet-bounded


class TestDifferential:
    def test_v2_assignments_match_v1_for_same_seed(self):
        async def drive(protocol: int) -> list[RelayOption]:
            choices: list[RelayOption] = []
            async with ViaController(ViaConfig(seed=11)) as controller:
                async with AgentClient(
                    0, "US", "127.0.0.1", controller.port, protocol=protocol
                ) as client:
                    for i, option in enumerate(OPTIONS):
                        await client.report_measurement(
                            1,
                            option,
                            PathMetrics(
                                rtt_ms=50.0 + 10.0 * i, loss_rate=0.0, jitter_ms=1.0
                            ),
                            0.1 + 0.01 * i,
                        )
                    for i in range(8):
                        choices.append(
                            await client.request_assignment(1, OPTIONS, 0.5 + 0.01 * i)
                        )
            return choices

        v1 = run(drive(1))
        v2 = run(drive(2))
        assert v1 == v2


def hello_v2(client_id: int = 0, site: str = "US") -> bytes:
    return wire({"type": "hello", "client_id": client_id, "site": site, "protocol": 2})


def spy_on_writes(monkeypatch) -> list[bytes]:
    """Every ``StreamWriter.write`` payload from here on, both ends."""
    writes: list[bytes] = []
    write = asyncio.StreamWriter.write

    def spy(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", spy)
    return writes


def frames_of(data: bytes, frame_type: str) -> list[dict]:
    frames = [json.loads(line) for line in data.splitlines() if line.strip()]
    return [frame for frame in frames if frame.get("type") == frame_type]


class TestServePass:
    """One synchronous serve pass per loop turn: one write per connection,
    the policy's decisions untouched, nothing served after ``stop()``."""

    @staticmethod
    def assert_burst_leaves_in_one_write(monkeypatch) -> None:
        writes = spy_on_writes(monkeypatch)

        async def scenario():
            async with ViaController(ViaConfig(seed=2)) as controller:
                reader, writer = await raw_connect(controller.port)
                writer.write(hello_v2())
                assert (await read_json(reader))["type"] == "hello_ack"
                writer.write(
                    b"".join(wire(request_payload(i, t_hours=0.1 * i)) for i in range(1, 9))
                )
                replies = [await read_json(reader) for _ in range(8)]
                assert sorted(reply["corr_id"] for reply in replies) == list(range(1, 9))
                writer.close()

        run(scenario())
        carrying = [frames_of(data, "assign") for data in writes]
        carrying = [frames for frames in carrying if frames]
        assert len(carrying) == 1, [len(frames) for frames in carrying]
        assert sorted(frame["corr_id"] for frame in carrying[0]) == list(range(1, 9))

    def test_a_pipelined_burst_is_answered_in_one_write(self, monkeypatch):
        self.assert_burst_leaves_in_one_write(monkeypatch)

    def test_one_write_per_reply_is_caught(self, monkeypatch):
        """Planted bug: each queued request served by a pass of its own,
        so each reply goes out in a write of its own."""
        serve_pass = ViaServer._serve_pass

        def one_reply_per_write(self):
            pending = list(self._queue)
            self._queue.clear()
            for item in pending:
                self._queue.append(item)
                serve_pass(self)

        monkeypatch.setattr(ViaServer, "_serve_pass", one_reply_per_write)
        with pytest.raises(AssertionError):
            self.assert_burst_leaves_in_one_write(monkeypatch)

    def test_served_decisions_match_an_in_process_twin(self):
        """~400 calls over two pipelining connections: every reply carries
        what a storeless in-process controller returns when it is fed the
        same messages in the order the server's controller handled them."""
        menu = [DIRECT, *OPTIONS]
        wire_menu = [encode_option(option) for option in menu]
        handled: list[tuple] = []
        replies: dict[int, dict] = {}

        async def session(port: int, client_id: int, site: str, seed: int) -> int:
            rng = random.Random(seed)
            reader, writer = await raw_connect(port)
            writer.write(hello_v2(client_id, site))
            assert (await read_json(reader))["type"] == "hello_ack"
            corr_id = 100_000 * client_id
            n_calls = 0
            while n_calls < 200:
                burst = []
                for _ in range(rng.randint(1, 8)):
                    corr_id += 1
                    src, dst = rng.choice([(0, 1), (1, 0), (2, 3), (client_id, 9)])
                    t_hours = 0.05 * (n_calls + len(burst))
                    burst.append(RequestMessage(src, dst, t_hours, wire_menu, corr_id=corr_id))
                writer.write(b"".join(encode_message(request) for request in burst))
                for _ in burst:
                    reply = await read_json(reader)
                    replies[reply["corr_id"]] = reply
                measurements = [
                    MeasurementMessage(
                        request.src_id,
                        request.dst_id,
                        request.t_hours,
                        replies[request.corr_id]["option"],
                        rtt_ms=rng.uniform(20.0, 300.0),
                        loss_rate=rng.uniform(0.0, 0.05),
                        jitter_ms=rng.uniform(0.0, 20.0),
                    )
                    for request in burst
                ]
                writer.write(b"".join(encode_message(m) for m in measurements))
                n_calls += len(burst)
            # Lines are handled in order: once the stats reply is back,
            # every measurement before it has reached the policy.
            writer.write(wire({"type": "stats_request", "corr_id": -1}))
            assert (await read_json(reader))["type"] == "stats"
            writer.close()
            return n_calls

        async def scenario():
            async with ViaController(ViaConfig(seed=11)) as controller:
                for name in ("_on_hello", "_on_measurement", "_on_request"):
                    bound = getattr(controller, name)

                    def record(*args, _name=name, _bound=bound, **kwargs):
                        handled.append((_name, args))
                        return _bound(*args, **kwargs)

                    setattr(controller, name, record)
                n_calls = await asyncio.gather(
                    session(controller.port, 0, "US", seed=1),
                    session(controller.port, 1, "DE", seed=2),
                )
                return sum(n_calls), controller.snapshot_dict()

        n_calls, served_state = run(scenario())
        assert n_calls >= 400 and len(replies) == n_calls
        twin = ViaController(ViaConfig(seed=11))
        n_checked = 0
        for name, args in handled:
            twin._count_message(name.removeprefix("_on_"))
            decision = getattr(twin, name)(*args)
            if name == "_on_request":
                reply = replies[args[0].corr_id]
                assert reply["type"] == "assign"
                assert decode_option(reply["option"]) == decode_option(decision.option)
                n_checked += 1
        assert n_checked == n_calls
        assert twin.snapshot_dict() == served_state

    @staticmethod
    def stop_mid_stall(tmp_path, monkeypatch) -> None:
        """A v2 request deferred by a stall window when ``stop()`` runs."""
        store_dir = tmp_path / "store"
        writes = spy_on_writes(monkeypatch)

        async def scenario():
            faults = FaultPlan(stall_windows=((4.9, 5.1),), stall_s=1.0)
            controller = ViaController(faults=faults, store=store_dir)
            await controller.start()
            reader, writer = await raw_connect(controller.port)
            writer.write(hello_v2())
            assert (await read_json(reader))["type"] == "hello_ack"
            writer.write(wire(request_payload(1, t_hours=5.0)))
            while controller.faults.n_stalled_requests == 0:
                await asyncio.sleep(0.005)
            await controller.stop()
            n_writes = len(writes)
            await asyncio.sleep(1.2)  # well past the stall
            assert len(writes) == n_writes, "a reply was written after stop()"
            assert await reader.read() == b""
            writer.close()
            admission = controller.admission
            sheds = controller.registry.get("via_admission_sheds_total")
            served = controller.registry.get("via_controller_message_duration_seconds")
            n_served = served.series_for(type="request").count
            n_deadline = sheds.value_for(reason="deadline")
            n_shutdown = sheds.value_for(reason="shutdown")
            assert admission.n_admitted == 1
            assert admission.n_admitted == n_served + n_deadline + n_shutdown
            assert n_shutdown == 1

        run(scenario())
        logged = [record["kind"] for record in read_wal(store_dir).records]
        assert "request" not in logged, logged

    def test_a_request_deferred_at_stop_is_shed_not_served_later(
        self, tmp_path, monkeypatch
    ):
        self.stop_mid_stall(tmp_path, monkeypatch)

    def test_a_deferred_request_left_running_at_stop_is_caught(
        self, tmp_path, monkeypatch
    ):
        """Planted bug: ``stop()`` counts the deferred request as shed but
        never cancels its timer, so the policy serves it after stop."""
        monkeypatch.setattr(asyncio.TimerHandle, "cancel", lambda handle: None)
        with pytest.raises(AssertionError):
            self.stop_mid_stall(tmp_path, monkeypatch)


class TestShutdown:
    @pytest.mark.parametrize("n_yields", range(8))
    def test_stop_outwaits_a_peer_closed_connection(self, n_yields, caplog):
        """``stop()`` returns only after every connection task is done,
        including one whose peer closed just before: a task left at
        ``wait_closed`` would be cancelled by ``asyncio.run`` and logged
        as an ERROR from the stream protocol's callback."""

        async def scenario():
            controller = ViaController()
            await controller.start()
            reader, writer = await raw_connect(controller.port)
            writer.write(hello_v2())
            assert (await read_json(reader))["type"] == "hello_ack"
            writer.close()
            for _ in range(n_yields):
                await asyncio.sleep(0)
            await controller.stop()
            current = asyncio.current_task()
            return [t for t in asyncio.all_tasks() if t is not current and not t.done()]

        with caplog.at_level(logging.ERROR):
            pending = run(scenario())
        assert pending == []
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
