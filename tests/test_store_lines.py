"""The WAL logs the line it was sent: live decode == recovered record.

A ``hello``, ``measurement`` or ``request`` record is the peer's wire line
behind ``seq``/``kind`` -- the durable write path encodes nothing.  These
tests pin what that rests on: every spelling of a line the gate accepts
reads back with the fields the gate decoded, a line can never bring its
own ``seq`` or ``kind``, a controller recovered from such a log equals its
storeless twin, and nobody can quietly put an encoder back on the path.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import ViaConfig
from repro.deployment import ViaController, controller as controller_module, protocol
from repro.deployment.protocol import (
    HelloMessage,
    MeasurementMessage,
    ProtocolError,
    RequestMessage,
    decode_message,
    encode_message,
    encode_option,
)
from repro.netmodel.options import DIRECT, RelayOption
from repro.store import SEGMENT_MAGIC, Store, encode_frame, facade, read_wal, recover, wal
from repro.verify.crashpoints import controller_fingerprint
from tests.test_protocol import assert_lines_are_harmless, messages_of

pytestmark = pytest.mark.store

LOGGED = ("hello", "measurement", "request")
MENU = [encode_option(o) for o in (DIRECT, RelayOption.bounce(1), RelayOption.transit(1, 2))]


def spellings(message) -> list[bytes]:
    """Lines ``decode_message`` takes for ``message``, most of which an
    encoder never emits."""
    compact = encode_message(message)
    payload = json.loads(compact)
    first = next(iter(protocol._CODECS[message.type].by_name))
    return [
        compact,
        b" \t" + compact.rstrip(b"\n") + b" \r\n",
        json.dumps(payload, separators=(" , ", " : ")).encode() + b"\r\n",
        json.dumps(dict(reversed(payload.items()))).encode() + b"\n",
        json.dumps(payload, ensure_ascii=False).encode("utf-8") + b"\n",
        # A duplicated member whose *first* value is hostile: the last wins,
        # at the gate and on replay alike.
        b'{"%s":[1],' % first.encode() + compact[1:],
    ]


def assert_logged_as_decoded(lines: list[bytes]) -> None:
    """Every line reads back from the WAL with the values the gate decoded."""
    decoded = [decode_message(line) for line in lines]
    with tempfile.TemporaryDirectory() as root:
        store = Store(root)
        seqs = [store.log_line(message.type, line) for message, line in zip(decoded, lines)]
        store.close()
        result = read_wal(store.wal.directory)
    assert result.n_corrupt == 0 and result.n_torn_segments == 0
    assert [r["seq"] for r in result.records] == seqs == list(range(1, len(lines) + 1))
    for message, record in zip(decoded, result.records):
        codec = protocol._CODECS[message.type]
        assert record["kind"] == record["type"] == message.type
        values = {f.name: getattr(message, f.name) for f in codec.fields}
        sent = {name: value for name, value in values.items() if name in record}
        assert sent == {name: record[name] for name in sent}
        # What the line left out is what the dataclass defaults.
        assert set(values) - set(sent) <= {"corr_id", "protocol"}
        assert set(record) == {"seq", "kind"} | set(sent)


_logged_messages = st.one_of([messages_of(protocol._CODECS[kind]) for kind in LOGGED])


class TestLiveDecodeEqualsRecoveredRecord:
    @given(_logged_messages)
    @settings(max_examples=150, deadline=None)
    def test_every_spelling_reads_back_as_it_decoded(self, message):
        assert_logged_as_decoded(spellings(message))

    def test_a_non_ascii_site_survives_raw_and_escaped(self):
        hello = HelloMessage(client_id=3, site="Zürich-東京", protocol=2, corr_id=9)
        lines = spellings(hello)
        assert any("東".encode("utf-8") in line for line in lines)
        assert any(b"\\u6771" in line for line in lines)
        assert_logged_as_decoded(lines)

    @pytest.mark.parametrize("planted", ["no_strip", "keeps_the_brace"])
    def test_a_wrong_splice_is_caught_by_the_property(self, planted, monkeypatch):
        """Planted bugs: splice the unstripped line, or keep its brace."""
        real = wal.WriteAheadLog._append
        if planted == "no_strip":
            monkeypatch.setattr(
                wal.WriteAheadLog,
                "append_line",
                lambda self, kind, line: real(self, kind, wal._LINE_HEAD[kind], line),
            )
        else:
            monkeypatch.setattr(
                wal.WriteAheadLog,
                "_append",
                lambda self, kind, head, body: real(self, kind, head, b"{" + body),
            )
        request = RequestMessage(src_id=1, dst_id=2, t_hours=0.5, options=MENU, corr_id=4)
        with pytest.raises((AssertionError, ValueError)):
            assert_logged_as_decoded(spellings(request))


class TestSplicePrecondition:
    @pytest.mark.parametrize(
        "line", [b"", b"\n", b"{}", b" { } \n", b"[1]", b'{"a":1', b'"a":1}', b"null"]
    )
    def test_a_body_that_is_not_a_non_empty_object_writes_nothing(self, line, tmp_path):
        store = Store(tmp_path)
        with pytest.raises(ValueError):
            store.log_line("request", line)
        assert store.wal.last_seq == 0 and store.wal.active_path is None
        store.close()

    def test_kind_is_one_of_the_stores_own(self, tmp_path):
        store = Store(tmp_path)
        with pytest.raises(ValueError):
            store.log_line('x","seq":0,"y":"', b'{"a":1}')
        assert store.wal.last_seq == 0
        store.close()

    def test_a_record_given_as_values_may_not_bring_a_seq(self, tmp_path):
        log = wal.WriteAheadLog(tmp_path)
        with pytest.raises(ValueError):
            log.append({"kind": "hello", "seq": 7})
        assert log.last_seq == 0
        log.close()


class TestNoSeqOrKindCollision:
    def test_no_logged_class_declares_seq_or_kind(self):
        for kind in LOGGED:
            assert not {"seq", "kind"} & set(protocol._CODECS[kind].by_name)

    @pytest.mark.parametrize("member", ['"seq":0', '"kind":"hello"', '"seq":[1],"seq":2'])
    def test_a_line_with_either_is_refused_at_the_gate(self, member, tmp_path):
        valid = [
            encode_message(HelloMessage(client_id=5, site="GB")),
            encode_message(RequestMessage(src_id=0, dst_id=5, t_hours=1.0, options=MENU)),
            encode_message(
                MeasurementMessage(
                    src_id=0, dst_id=5, t_hours=1.0, option=MENU[1],
                    rtt_ms=90.0, loss_rate=0.01, jitter_ms=2.0,
                )
            ),
        ]
        hostile = [b"{" + member.encode() + b"," + line[1:] for line in valid]
        hostile += [line.rstrip(b"}\n") + b"," + member.encode() + b"}\n" for line in valid]
        for line in hostile:
            with pytest.raises(ProtocolError):
                decode_message(line)
        # Over a socket: refused, served around, and in no segment.
        assert_lines_are_harmless(
            hostile + valid, tmp_path, {"type": "hello", "client_id": 0, "site": "US", "protocol": 2}
        )


# ----------------------------------------------------------------------
# Over a real socket
# ----------------------------------------------------------------------

CONFIG = ViaConfig(metric="rtt_ms", epsilon=0.25, min_direct_samples=1, seed=42)


def call_lines(protocol_version: int, n_rounds: int = 12) -> list[bytes]:
    """One connection's traffic, each message in a different spelling."""
    hello = HelloMessage(client_id=0, site="Zürich", protocol=protocol_version, corr_id=1)
    # v1 says hello in raw UTF-8, v2 padded and \r\n-terminated; the calls
    # below cycle through all six spellings.
    lines = [spellings(hello)[4 if protocol_version == 1 else 1]]
    for i in range(n_rounds):
        src, dst = i % 3, 3 + i % 2
        corr = {"corr_id": 10 + 2 * i} if protocol_version >= 2 else {}
        measurement = MeasurementMessage(
            src_id=src, dst_id=dst, t_hours=0.1 + 0.02 * i, option=MENU[i % 3],
            rtt_ms=80.0 + 7 * i, loss_rate=0.01, jitter_ms=3.0,
        )
        request = RequestMessage(
            src_id=src, dst_id=dst, t_hours=0.11 + 0.02 * i, options=MENU, **corr
        )
        lines.append(spellings(measurement)[i % 6])
        lines.append(spellings(request)[(i + 3) % 6])
    return lines


async def feed(controller: ViaController, lines: list[bytes]) -> None:
    """Send ``lines`` closed-loop (a request waits for its reply), so the
    handling order is the sending order on every run."""
    reader, writer = await asyncio.open_connection("127.0.0.1", controller.port)
    for line in lines:
        writer.write(line)
        await writer.drain()
        message = decode_message(line)
        if isinstance(message, RequestMessage) or (
            isinstance(message, HelloMessage) and message.protocol >= 2
        ):
            reply = json.loads(await asyncio.wait_for(reader.readline(), timeout=20.0))
            assert reply["type"] in ("assign", "hello_ack"), reply
    # Everything before the stats reply has been handled.
    writer.write(b'{"type":"stats_request"}\n')
    await writer.drain()
    assert json.loads(await asyncio.wait_for(reader.readline(), timeout=20.0))["type"] == "stats"
    writer.close()


async def crash(controller: ViaController) -> None:
    """Stop serving without the final snapshot, compaction or close."""
    frontend, controller._frontend = controller._frontend, None
    await frontend.stop()


class TestOverARealSocket:
    @pytest.mark.parametrize("protocol_version", [1, 2], ids=["v1", "v2"])
    def test_recovered_equals_the_storeless_twin(self, protocol_version, tmp_path):
        lines = call_lines(protocol_version)

        async def scenario():
            live = ViaController(CONFIG, store=tmp_path)
            twin = ViaController(CONFIG)
            for controller in (live, twin):
                await controller.start()
                await feed(controller, lines)
                await crash(controller)
            assert live.n_policy_errors == twin.n_policy_errors == 0
            return controller_fingerprint(live), controller_fingerprint(twin)

        live_print, twin_print = asyncio.run(scenario())
        recovered = ViaController(CONFIG)
        report = recover(Store(tmp_path), recovered)
        assert report.clean and report.n_replayed == len(lines)
        assert recovered.n_policy_errors == 0
        assert controller_fingerprint(recovered) == twin_print == live_print

    def test_the_wire_path_encodes_nothing_to_log(self, tmp_path, monkeypatch):
        """Structural guard: with every encoder the store and the
        controller's log step can see made to raise, a served hello,
        request and measurement still land three records."""
        lines = call_lines(2, n_rounds=1)

        def boom(*args, **kwargs):
            raise AssertionError("an encoder ran on the durable write path")

        no_encoder = types.SimpleNamespace(
            loads=json.loads, JSONDecodeError=json.JSONDecodeError,
            dumps=boom, JSONEncoder=boom,
        )

        async def scenario():
            live = ViaController(CONFIG, store=tmp_path)
            await live.start()
            with monkeypatch.context() as patched:
                for module in (wal, facade):
                    patched.setattr(module, "json", no_encoder)
                    patched.setattr(module, "_dumps", boom)
                patched.setattr(controller_module, "encode_message", boom)
                with pytest.raises(AssertionError):  # the guard itself is live
                    live.store.log_hello(9, "US")
                await feed(live, lines)
                await crash(live)
            assert live.n_policy_errors == 0

        asyncio.run(scenario())
        records = read_wal(tmp_path / "wal").records
        assert [r["kind"] for r in records] == ["hello", "measurement", "request"]
        assert records[0]["site"] == "Zürich" and records[2]["options"] == MENU


# ----------------------------------------------------------------------
# The other record shapes replay to the same state
# ----------------------------------------------------------------------


def drive_in_process(controller: ViaController, n_rounds: int = 20) -> None:
    for cid, site in enumerate(("US", "GB", "IN", "SG")):
        controller._count_message("hello")
        controller._on_hello(cid, site)
    for i in range(n_rounds):
        src, dst = i % 3, 3
        controller._count_message("measurement")
        controller._on_measurement(MeasurementMessage(
            src_id=src, dst_id=dst, t_hours=0.1 + 0.02 * i, option=MENU[i % 3],
            rtt_ms=80.0 + 7 * i, loss_rate=0.01, jitter_ms=3.0,
        ))
        controller._count_message("request")
        controller._on_request(RequestMessage(
            src_id=src, dst_id=dst, t_hours=0.11 + 0.02 * i, options=MENU,
        ))


def recovered_fingerprint(root) -> str:
    controller = ViaController(CONFIG)
    report = recover(Store(root), controller)
    assert report.clean and controller.n_policy_errors == 0
    return controller_fingerprint(controller)


class TestRecordShapes:
    def test_in_process_typed_and_parent_records_replay_alike(self, tmp_path):
        """No line (in-process callers), the typed helpers (``perf/``) and
        a segment as the parent commit wrote it: one state."""
        live = ViaController(CONFIG, store=tmp_path / "in-process")
        drive_in_process(live)
        records = read_wal(tmp_path / "in-process" / "wal").records
        assert {r["type"] for r in records} == set(LOGGED)

        typed = Store(tmp_path / "typed")
        parent_records = []
        for r in records:
            if r["kind"] == "hello":
                seq = typed.log_hello(r["client_id"], r["site"])
                parent = {"kind": "hello", "client_id": r["client_id"], "site": r["site"]}
            elif r["kind"] == "measurement":
                values = (
                    r["src_id"], r["dst_id"], r["t_hours"], r["option"],
                    r["rtt_ms"], r["loss_rate"], r["jitter_ms"],
                )
                seq = typed.log_measurement(*values, src_site="US", dst_site="SG")
                parent = {
                    "kind": "measurement",
                    **{k: r[k] for k in ("src_id", "dst_id", "t_hours", "option")},
                    **{k: r[k] for k in ("rtt_ms", "loss_rate", "jitter_ms")},
                    "src_site": "US", "dst_site": "SG",
                }
            else:
                seq = typed.log_request(r["src_id"], r["dst_id"], r["t_hours"], r["options"])
                parent = {
                    "kind": "request",
                    **{k: r[k] for k in ("src_id", "dst_id", "t_hours", "options")},
                }
            assert seq == r["seq"]
            # The parent stamped seq last, into a copy of the typed record.
            parent_records.append({**parent, "seq": seq})
        typed.close()
        assert "type" not in read_wal(tmp_path / "typed" / "wal").records[-1]

        parent_wal = tmp_path / "parent" / "wal"
        parent_wal.mkdir(parents=True)
        (parent_wal / "wal-00000001.seg").write_bytes(
            SEGMENT_MAGIC + b"".join(encode_frame(r) for r in parent_records)
        )
        assert read_wal(parent_wal).records == parent_records

        expected = controller_fingerprint(live)
        for shape in ("in-process", "typed", "parent"):
            assert recovered_fingerprint(tmp_path / shape) == expected, shape
