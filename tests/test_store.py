"""Unit tests for the durable storage plane: WAL, compaction, facade, CLI."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.cli import main
from repro.core.history import option_to_dict
from repro.netmodel.options import RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.store import (
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    SNAPSHOT_FORMAT,
    Store,
    StoreConfig,
    WriteAheadLog,
    atomic_write_bytes,
    encode_frame,
    read_segment,
    read_wal,
)

pytestmark = pytest.mark.store

HEADER = struct.Struct("<II")


def measurement_record(i: int, *, src: int = 1, dst: int = 2) -> dict:
    return {
        "kind": "measurement",
        "src_id": src,
        "dst_id": dst,
        "t_hours": 0.1 + i * 0.01,
        "option": option_to_dict(RelayOption.bounce(3)),
        "rtt_ms": 100.0 + i,
        "loss_rate": 0.01,
        "jitter_ms": 5.0,
        "src_site": "US",
        "dst_site": "GB",
    }


def write_snapshot_file(root, *, last_seq: int) -> None:
    """A snapshot covering ``last_seq`` with every segment left in place:
    what a crash between the snapshot rename and the segment drop leaves."""
    (root / "snapshot.json").write_text(json.dumps({
        "format": SNAPSHOT_FORMAT,
        "last_seq": last_seq,
        "controller": {},
    }))


class FakeSource:
    """A SnapshotSource whose state is one counter."""

    def __init__(self, n: int = 0) -> None:
        self.n = n

    def snapshot_dict(self) -> dict:
        return {"n": self.n}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_frame_roundtrip(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        records = [dict(measurement_record(i), seq=i + 1) for i in range(5)]
        path.write_bytes(SEGMENT_MAGIC + b"".join(encode_frame(r) for r in records))
        result = read_segment(path)
        assert result.records == records
        assert result.n_corrupt == 0
        assert not result.torn

    def test_frame_header_is_length_then_crc(self):
        record = {"kind": "hello", "seq": 1}
        frame = encode_frame(record)
        length, crc = HEADER.unpack_from(frame)
        payload = frame[HEADER.size :]
        assert length == len(payload)
        assert crc == zlib.crc32(payload)
        assert json.loads(payload) == record

    def test_oversized_record_rejected(self):
        with pytest.raises(ValueError):
            encode_frame({"kind": "blob", "seq": 1, "x": "a" * (MAX_RECORD_BYTES + 1)})

    def test_missing_magic_is_one_corruption(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        path.write_bytes(b"not a segment at all")
        result = read_segment(path)
        assert result.records == []
        assert result.n_corrupt == 1

    def test_empty_file_is_clean(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        path.write_bytes(b"")
        result = read_segment(path)
        assert result.records == [] and result.n_corrupt == 0 and not result.torn


class TestDamageTolerance:
    def _write_segment(self, path, records):
        path.write_bytes(SEGMENT_MAGIC + b"".join(encode_frame(r) for r in records))

    def test_torn_final_frame_dropped(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        records = [dict(measurement_record(i), seq=i + 1) for i in range(4)]
        self._write_segment(path, records)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # crash mid-append: final frame incomplete
        result = read_segment(path)
        assert result.torn
        assert [r["seq"] for r in result.records] == [1, 2, 3]
        assert result.n_corrupt == 0

    def test_torn_header_only_tail(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        self._write_segment(path, [{"kind": "hello", "seq": 1}])
        with open(path, "ab") as fh:
            fh.write(b"\x05")  # 1 byte of a next header
        result = read_segment(path)
        assert result.torn and [r["seq"] for r in result.records] == [1]

    def test_mid_segment_crc_mismatch_skipped(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        records = [dict(measurement_record(i), seq=i + 1) for i in range(3)]
        self._write_segment(path, records)
        data = bytearray(path.read_bytes())
        # Flip a payload byte of the *middle* frame without touching framing.
        offset = len(SEGMENT_MAGIC) + len(encode_frame(records[0])) + HEADER.size + 4
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        result = read_segment(path)
        assert result.n_corrupt == 1
        assert [r["seq"] for r in result.records] == [1, 3]
        assert not result.torn

    def test_implausible_length_abandons_segment(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        self._write_segment(path, [{"kind": "hello", "seq": 1}])
        with open(path, "ab") as fh:
            fh.write(HEADER.pack(MAX_RECORD_BYTES + 1, 0) + b"garbage")
        result = read_segment(path)
        assert result.n_corrupt == 1
        assert [r["seq"] for r in result.records] == [1]

    def test_payload_without_seq_or_kind_counted(self, tmp_path):
        path = tmp_path / "wal-00000001.seg"
        self._write_segment(path, [{"kind": "hello"}, {"seq": 2}, [1, 2, 3]])
        result = read_segment(path)
        assert result.records == []
        assert result.n_corrupt == 3


# ----------------------------------------------------------------------
# WriteAheadLog
# ----------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_stamps_monotone_seq_without_mutating_caller(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        record = {"kind": "hello", "client_id": 1, "site": "US"}
        assert wal.append(record) == 1
        assert wal.append(record) == 2
        assert "seq" not in record
        wal.close()
        result = read_wal(tmp_path)
        assert [r["seq"] for r in result.records] == [1, 2]

    def test_rotation_by_record_count(self, tmp_path):
        wal = WriteAheadLog(tmp_path, max_segment_records=3)
        for i in range(7):
            wal.append(measurement_record(i))
        assert len(wal.sealed_segments()) == 2
        assert [s.n_records for s in wal.sealed_segments()] == [3, 3]
        wal.close()
        assert len(wal.sealed_segments()) == 3

    def test_rotation_by_size(self, tmp_path):
        frame_len = len(encode_frame(dict(measurement_record(0), seq=1)))
        wal = WriteAheadLog(tmp_path, max_segment_bytes=2 * frame_len)
        for i in range(6):
            wal.append(measurement_record(i))
        wal.close()
        assert len(wal.sealed_segments()) >= 3

    def test_rotation_by_age_with_injected_clock(self, tmp_path):
        now = [0.0]
        wal = WriteAheadLog(tmp_path, max_segment_age_s=10.0, clock=lambda: now[0])
        wal.append({"kind": "hello"})
        wal.append({"kind": "hello"})
        assert len(wal.sealed_segments()) == 0
        now[0] = 11.0
        wal.append({"kind": "hello"})  # age check runs after this append
        assert len(wal.sealed_segments()) == 1
        wal.close()

    def test_reopen_resumes_seq_and_never_appends_to_old_files(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(5):
            wal.append(measurement_record(i))
        wal.close()
        first_paths = set(p.name for p in tmp_path.glob("wal-*.seg"))

        wal2 = WriteAheadLog(tmp_path)
        assert wal2.last_seq == 5
        assert wal2.append({"kind": "hello"}) == 6
        wal2.close()
        new_paths = set(p.name for p in tmp_path.glob("wal-*.seg")) - first_paths
        assert len(new_paths) == 1  # a fresh segment, old ones untouched
        result = read_wal(tmp_path)
        assert [r["seq"] for r in result.records] == [1, 2, 3, 4, 5, 6]

    def test_reopen_after_torn_tail_keeps_writing(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for i in range(3):
            wal.append(measurement_record(i))
        wal.close()
        seg = wal.sealed_segments()[0].path
        seg.write_bytes(seg.read_bytes()[:-5])

        wal2 = WriteAheadLog(tmp_path)
        assert wal2.last_seq == 2  # record 3 was torn away
        assert wal2.append({"kind": "hello"}) == 3
        wal2.close()

    def test_fsync_always_counts_one_per_append(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, fsync="always", registry=registry)
        for i in range(5):
            wal.append({"kind": "hello"})
        assert registry.get("via_store_fsyncs_total").value == 5
        wal.close()

    def test_fsync_batch_counts_every_n(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, fsync="batch", batch_every=4, registry=registry)
        for i in range(9):
            wal.append({"kind": "hello"})
        assert registry.get("via_store_fsyncs_total").value == 2
        wal.close()  # flushes the final pending record
        assert registry.get("via_store_fsyncs_total").value == 3

    def test_fsync_off_never_syncs(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, fsync="off", registry=registry)
        for i in range(10):
            wal.append({"kind": "hello"})
        wal.close()
        assert registry.get("via_store_fsyncs_total").value == 0
        # Unbuffered writes mean the records are still readable.
        assert len(read_wal(tmp_path).records) == 10

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_rotate_empty_active_leaves_no_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"kind": "hello"})
        wal.rotate()
        wal.rotate()  # nothing appended since: no new file should appear
        wal.close()
        assert len(list(tmp_path.glob("wal-*.seg"))) == 1

    @pytest.mark.parametrize("failure", ["short", "oserror"])
    def test_a_failed_write_never_eats_its_neighbours(self, tmp_path, failure):
        """A short or failed write seals the segment behind the torn bytes:
        the next append opens a fresh one and reuses the seq."""

        class FailsOnce:
            def __init__(self, fh):
                self.fh, self.armed = fh, True

            def write(self, data):
                if not self.armed:
                    return self.fh.write(data)
                self.armed = False
                written = self.fh.write(data[: len(data) // 2])  # ENOSPC mid-frame
                if failure == "oserror":
                    raise OSError(28, "No space left on device")
                return written

            def __getattr__(self, name):
                return getattr(self.fh, name)

        wal = WriteAheadLog(tmp_path, fsync="off")
        assert [wal.append(measurement_record(i)) for i in range(2)] == [1, 2]
        torn_path = wal.active_path
        wal._fh = FailsOnce(wal._fh)
        with pytest.raises(OSError):
            wal.append(measurement_record(2))
        assert wal.last_seq == 2 and wal.active_path is None
        assert [wal.append(measurement_record(i)) for i in range(2, 4)] == [3, 4]
        assert wal.active_path != torn_path
        wal.close()
        sealed = wal.sealed_segments()
        assert [(s.first_seq, s.last_seq) for s in sealed] == [(1, 2), (3, 4)]
        assert sealed[0].size_bytes == torn_path.stat().st_size
        result = read_wal(tmp_path)
        assert [r["rtt_ms"] for r in result.records] == [100.0, 101.0, 102.0, 103.0]
        assert [r["seq"] for r in result.records] == [1, 2, 3, 4]
        assert result.n_torn_segments == 1 and result.n_corrupt == 0
        # ... and a reopened log agrees.
        assert WriteAheadLog(tmp_path).last_seq == 4

    def test_a_failed_first_write_leaves_no_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append({"kind": "hello"})
        wal.rotate()
        wal._ensure_active(2)

        class Full:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                raise OSError(28, "No space left on device")

            def __getattr__(self, name):
                return getattr(self.fh, name)

        wal._fh = Full(wal._fh)
        with pytest.raises(OSError):
            wal.append({"kind": "hello"})
        assert wal.append({"kind": "hello"}) == 2
        wal.close()
        assert len(list(tmp_path.glob("wal-*.seg"))) == 2
        result = read_wal(tmp_path)
        assert [r["seq"] for r in result.records] == [1, 2]
        assert result.n_torn_segments == 0 and result.n_corrupt == 0

    def test_a_failed_magic_write_is_not_appended_behind(self, tmp_path, monkeypatch):
        """The handle is adopted only behind its magic: an ``ENOSPC`` there
        must not leave later appends in a segment no reader can frame."""
        from repro.store import wal as wal_module

        class NoMagic:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                raise OSError(28, "No space left on device")

        real_open, opened = open, []

        def open_once_full(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return NoMagic(fh) if len(opened) == 1 else fh

        monkeypatch.setattr(wal_module, "open", open_once_full, raising=False)
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(OSError):
            wal.append({"kind": "hello"})
        assert wal.last_seq == 0
        assert wal.append({"kind": "hello"}) == 1
        wal.close()
        opened[0].close()
        result = read_wal(tmp_path)
        assert [r["seq"] for r in result.records] == [1] and result.n_corrupt == 0

    def test_metrics_appends_and_segments(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, max_segment_records=2, registry=registry)
        for i in range(4):
            wal.append(measurement_record(i))
        wal.append({"kind": "hello"})
        appended = registry.get("via_store_records_appended_total")
        assert appended.value_for(kind="measurement") == 4
        assert appended.value_for(kind="hello") == 1
        assert registry.get("via_store_segments").value == 3  # 2 sealed + active
        assert registry.get("via_store_bytes_appended_total").value > 0
        wal.close()

    def test_read_wal_after_seq(self, tmp_path):
        wal = WriteAheadLog(tmp_path, max_segment_records=2)
        for i in range(6):
            wal.append(measurement_record(i))
        wal.close()
        result = read_wal(tmp_path, after_seq=4)
        assert [r["seq"] for r in result.records] == [5, 6]
        assert result.n_segments == 3


# ----------------------------------------------------------------------
# Store facade
# ----------------------------------------------------------------------


class TestStoreConfig:
    def test_defaults_valid(self):
        StoreConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fsync": "never"},
            {"snapshot_every_records": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StoreConfig(**kwargs)


class TestStore:
    def test_layout_under_one_root(self, tmp_path):
        """The whole disk contract: a snapshot, and the log written since."""
        root = tmp_path / "s"
        store = Store(root, StoreConfig(max_segment_records=2))
        for _ in range(5):
            store.log_hello(1, "US")
        store.snapshot(FakeSource(1))
        assert sorted(p.name for p in root.iterdir()) == ["snapshot.json", "wal"]
        assert list((root / "wal").iterdir()) == []
        store.log_hello(2, "GB")
        assert list((root / "wal").iterdir()) == [store.wal.active_path]
        store.close()

    def test_snapshot_truncates_covered_log(self, tmp_path):
        store = Store(tmp_path, StoreConfig(max_segment_records=4))
        for i in range(10):
            store.log_measurement(1, 2, 0.1 + i * 0.01,
                                  option_to_dict(RelayOption.bounce(3)),
                                  100.0, 0.01, 5.0)
        store.snapshot(FakeSource(10))
        assert store.records_after(store.snapshot_seq()).records == []
        store.log_hello(5, "IN")
        tail = store.records_after(store.snapshot_seq())
        assert [r["seq"] for r in tail.records] == [11]
        store.close()

    def test_snapshot_roundtrip_payload(self, tmp_path):
        store = Store(tmp_path)
        store.log_hello(1, "US")
        store.snapshot(FakeSource(42))
        payload, seq = store.read_snapshot()
        assert payload["controller"] == {"n": 42}
        assert seq == 1
        store.close()

    def test_corrupt_snapshot_raises_on_read_and_zero_seq(self, tmp_path):
        store = Store(tmp_path)
        store.snapshot_path.write_text("{ not json")
        with pytest.raises(json.JSONDecodeError):
            store.read_snapshot()
        assert store.snapshot_seq() == 0
        store.close()

    def test_should_snapshot_threshold(self, tmp_path):
        store = Store(tmp_path, StoreConfig(snapshot_every_records=3))
        assert not store.should_snapshot()
        for _ in range(3):
            store.log_hello(1, "US")
        assert store.should_snapshot()
        store.snapshot(FakeSource())
        assert not store.should_snapshot()
        store.close()

    def test_reopen_after_full_compaction_resumes_seq_past_snapshot(self, tmp_path):
        """A clean shutdown folds every segment away; the reopened store
        must keep numbering past the snapshot's seq, or new records would
        hide below the recovery horizon."""
        store = Store(tmp_path)
        for _ in range(5):
            store.log_hello(1, "US")
        store.snapshot(FakeSource())  # covers seq 5, deletes all segments
        store.close()
        assert list((tmp_path / "wal").glob("wal-*.seg")) == []

        reopened = Store(tmp_path)
        assert reopened.wal.last_seq == 5
        seq = reopened.log_hello(2, "GB")
        assert seq == 6
        tail = reopened.records_after(reopened.snapshot_seq())
        assert [r["seq"] for r in tail.records] == [6]
        reopened.close()

    def test_reopen_counts_unsnapshotted_backlog(self, tmp_path):
        store = Store(tmp_path, StoreConfig(snapshot_every_records=3))
        for _ in range(5):
            store.log_hello(1, "US")
        store.close()
        reopened = Store(tmp_path, StoreConfig(snapshot_every_records=3))
        assert reopened.should_snapshot()
        reopened.close()

    def test_only_covered_segments_are_dropped(self, tmp_path):
        store = Store(tmp_path, StoreConfig(max_segment_records=2))
        for _ in range(6):  # sealed: [1,2] [3,4] [5,6]
            store.log_hello(1, "US")
        sealed = store.wal.sealed_segments()
        write_snapshot_file(tmp_path, last_seq=4)
        result = store.compact()
        assert result.n_segments == 2
        assert result.bytes_reclaimed == sealed[0].size_bytes + sealed[1].size_bytes
        # Uncovered records survive on disk for recovery.
        assert [r["seq"] for r in read_wal(tmp_path / "wal").records] == [5, 6]
        assert store.compact().n_segments == 0
        # Only the pass that deleted something counts.
        assert store.registry.get("via_store_compactions_total").value == 1
        store.close()

    def test_compact_deletes_only_covered_segments(self, tmp_path):
        """Ported from ``WriteAheadLog.truncate_through``: a covered seq in
        the middle of the log, with an active segment still open."""
        store = Store(tmp_path, StoreConfig(max_segment_records=2))
        for i in range(7):  # segments: [1,2] [3,4] [5,6] + active [7]
            store.wal.append(measurement_record(i))
        write_snapshot_file(tmp_path, last_seq=4)
        assert store.compact().n_segments == 2
        assert store.wal.active_path is not None
        store.close()
        result = read_wal(tmp_path / "wal")
        assert [r["seq"] for r in result.records] == [5, 6, 7]

    def test_compact_without_snapshot_is_noop(self, tmp_path):
        store = Store(tmp_path, StoreConfig(max_segment_records=2))
        for i in range(6):
            store.log_hello(1, "US")
        result = store.compact()
        assert result.n_segments == 0
        assert len(store.records_after(0).records) == 6
        store.close()

    def test_snapshot_metric(self, tmp_path):
        registry = MetricsRegistry()
        store = Store(tmp_path, registry=registry)
        store.log_hello(1, "US")
        store.snapshot(FakeSource())
        assert registry.get("via_store_snapshots_total").value == 1
        store.close()


class TestAtomicWrite:
    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]  # no tmp file left behind


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestStoreCli:
    def _build_store(self, root, n=10):
        store = Store(root, StoreConfig(max_segment_records=4))
        for i in range(n):
            store.log_measurement(1, 2, 0.1 + i * 0.01,
                                  option_to_dict(RelayOption.bounce(3)),
                                  100.0, 0.01, 5.0, src_site="US", dst_site="GB")
        store.close()
        return store

    def test_inspect(self, tmp_path, capsys):
        self._build_store(tmp_path)
        assert main(["store", "inspect", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wal-00000001.seg" in out
        assert "snapshot" in out

    def test_verify_clean_store(self, tmp_path, capsys):
        self._build_store(tmp_path)
        assert main(["store", "verify", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_stale_archive_file_is_ignored(self, tmp_path, capsys):
        """A ``compacted.json`` left by an older version is not store state."""
        self._build_store(tmp_path)
        (tmp_path / "compacted.json").write_text("{ not an archive")
        assert main(["store", "verify", str(tmp_path)]) == 0
        assert main(["store", "inspect", str(tmp_path)]) == 0
        assert "compacted" not in capsys.readouterr().out

    def test_verify_flags_corruption(self, tmp_path, capsys):
        self._build_store(tmp_path)
        seg = sorted((tmp_path / "wal").glob("wal-*.seg"))[0]
        data = bytearray(seg.read_bytes())
        data[len(SEGMENT_MAGIC) + HEADER.size + 4] ^= 0xFF
        seg.write_bytes(bytes(data))
        assert main(["store", "verify", str(tmp_path)]) == 1
        assert "DAMAGED" in capsys.readouterr().out

    def test_verify_flags_corrupt_snapshot(self, tmp_path, capsys):
        self._build_store(tmp_path)
        (tmp_path / "snapshot.json").write_text("{ nope")
        assert main(["store", "verify", str(tmp_path)]) == 1

    def test_compact_subcommand(self, tmp_path, capsys):
        store = Store(tmp_path, StoreConfig(max_segment_records=4))
        for i in range(10):
            store.log_measurement(1, 2, 0.1 + i * 0.01,
                                  option_to_dict(RelayOption.bounce(3)),
                                  100.0, 0.01, 5.0)
        # Snapshot but keep segments: bypass the facade's own segment drop
        # by writing the snapshot file directly, so the CLI has work to do.
        write_snapshot_file(tmp_path, last_seq=store.wal.last_seq)
        store.close()
        assert main(["store", "compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "segments deleted" in out
        assert list((tmp_path / "wal").iterdir()) == []
        with pytest.raises(SystemExit):
            main(["store", "compact", str(tmp_path), "--retention-windows", "2"])

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["store", "inspect", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Rotation-boundary properties (hypothesis)
# ----------------------------------------------------------------------

from hypothesis import given, strategies as st  # noqa: E402


def _frame_size(record: dict) -> int:
    """On-disk bytes one record costs (header + compact JSON).

    ``record`` must carry its real ``seq`` (as records read back via
    ``read_wal`` do): the seq's digit count changes the payload length.
    """
    assert "seq" in record
    return len(encode_frame(dict(record)))


class TestRotationBoundaryProperties:
    """Segments must roll at *exactly* the configured limits.

    A sloppy boundary check (``>`` for ``>=``, counting before the append
    instead of after) passes fixed-size unit tests and then over- or
    under-fills segments in production, so these pin the exact contract
    under arbitrary record sizes: (a) no sealed segment violates the
    limit's invariant, (b) each sealed segment was *minimal* -- without
    its final record it would not have rotated -- and (c) the
    damage-tolerant reader sees every record, in order, no matter where
    the boundaries fell.
    """

    @given(
        n_records=st.integers(min_value=1, max_value=60),
        limit=st.integers(min_value=1, max_value=7),
    )
    def test_record_count_limit_is_exact(self, n_records, limit, tmp_path_factory):
        root = tmp_path_factory.mktemp("count")
        wal = WriteAheadLog(root, fsync="off", max_segment_records=limit,
                            max_segment_bytes=1 << 30)
        for i in range(n_records):
            wal.append({"kind": "pad", "i": i})
        wal.close()
        sealed = wal.sealed_segments()
        assert sum(s.n_records for s in sealed) == n_records
        # Every rotation-sealed segment holds exactly `limit` records; only
        # the close()-sealed remainder may hold fewer.
        for info in sealed[:-1]:
            assert info.n_records == limit
        assert 1 <= sealed[-1].n_records <= limit
        expected_full, remainder = divmod(n_records, limit)
        assert len(sealed) == expected_full + (1 if remainder else 0)
        result = read_wal(root)
        assert [r["seq"] for r in result.records] == list(range(1, n_records + 1))
        assert result.n_corrupt == 0 and result.n_torn_segments == 0

    @given(
        pads=st.lists(st.integers(min_value=0, max_value=300),
                      min_size=1, max_size=40),
        limit=st.integers(min_value=64, max_value=700),
    )
    def test_size_limit_rolls_at_exact_boundary(self, pads, limit, tmp_path_factory):
        root = tmp_path_factory.mktemp("size")
        wal = WriteAheadLog(root, fsync="off", max_segment_bytes=limit)
        records = [{"kind": "pad", "i": i, "d": "x" * n} for i, n in enumerate(pads)]
        for record in records:
            wal.append(record)
        wal.close()
        sealed = wal.sealed_segments()
        by_seq = {r["seq"]: r for r in read_wal(root).records}
        assert sorted(by_seq) == list(range(1, len(records) + 1))
        for pos, info in enumerate(sealed):
            assert info.size_bytes == info.path.stat().st_size
            last_frame = _frame_size(by_seq[info.last_seq])
            if pos < len(sealed) - 1:
                # Rotation-sealed: at or past the limit, and minimally so --
                # one record earlier it was still under it.
                assert info.size_bytes >= limit
                assert info.size_bytes - last_frame < limit
            else:
                # The final segment is either rotation-sealed like the
                # others or an under-limit remainder sealed by close().
                assert (info.size_bytes >= limit
                        and info.size_bytes - last_frame < limit) or (
                    info.size_bytes < limit
                )
        # A record larger than the whole limit still lands (its own
        # oversized segment) rather than wedging the log.
        for info in sealed:
            assert info.n_records >= 1

    @given(
        quiet_appends=st.integers(min_value=1, max_value=10),
        age_s=st.floats(min_value=0.5, max_value=60.0,
                        allow_nan=False, allow_infinity=False),
    )
    def test_age_limit_with_injected_clock(self, quiet_appends, age_s,
                                           tmp_path_factory):
        root = tmp_path_factory.mktemp("age")
        # The clock starts at 0.0 so `now - opened_at` is exact float
        # arithmetic: the boundary really is crossed *at* age_s, not an
        # ulp under it.
        now = [0.0]
        wal = WriteAheadLog(root, fsync="off", max_segment_age_s=age_s,
                            max_segment_bytes=1 << 30, clock=lambda: now[0])
        for i in range(quiet_appends):
            wal.append({"kind": "pad", "i": i})
        assert wal.sealed_segments() == [], "no rotation before the age limit"
        # Cross the age boundary exactly: the *next* append seals.
        now[0] = age_s
        wal.append({"kind": "pad", "i": quiet_appends})
        sealed = wal.sealed_segments()
        assert len(sealed) == 1
        assert sealed[0].n_records == quiet_appends + 1
        assert wal.active_path is None, "age rotation leaves no active file"
        # The next append starts a fresh segment whose age clock restarts.
        wal.append({"kind": "pad", "i": quiet_appends + 1})
        assert len(wal.sealed_segments()) == 1
        assert wal.active_path is not None
        wal.close()
        result = read_wal(root)
        assert [r["seq"] for r in result.records] == list(
            range(1, quiet_appends + 3)
        )

    @given(
        pads=st.lists(st.integers(min_value=0, max_value=200),
                      min_size=2, max_size=30),
        cut=st.integers(min_value=1, max_value=11),
    )
    def test_reader_survives_torn_tail_across_rotation(self, pads, cut,
                                                       tmp_path_factory):
        root = tmp_path_factory.mktemp("torn")
        wal = WriteAheadLog(root, fsync="off", max_segment_bytes=256)
        for i, n in enumerate(pads):
            wal.append({"kind": "pad", "i": i, "d": "x" * n})
        wal.close()
        # Damage the newest segment: chop mid-frame, as a crash would.
        newest = wal.sealed_segments()[-1].path
        data = newest.read_bytes()
        keep = max(len(SEGMENT_MAGIC), len(data) - cut)
        newest.write_bytes(data[:keep])
        result = read_wal(root)
        # Every fully-framed record survives, in order, with no gaps; only
        # a suffix of the damaged segment may be gone.
        seqs = [r["seq"] for r in result.records]
        assert seqs == list(range(1, len(seqs) + 1))
        assert len(pads) - len(seqs) <= (
            sum(1 for r in read_segment(newest).records) + 1 + cut // 1
        )
        assert result.n_corrupt == 0
