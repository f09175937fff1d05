"""Unit tests for the command-line interface."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.workload import TraceDataset


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.metric == "rtt_ms"
        assert args.calls == 20_000

    def test_simulate_rejects_unknown_metric(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--metric", "pesq"])

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestQualityCommand:
    def test_good_network(self, capsys):
        assert main(["quality", "--rtt", "50", "--loss", "0.001", "--jitter", "2"]) == 0
        out = capsys.readouterr().out
        assert "MOS = " in out

    def test_threshold_point_is_marginal(self, capsys):
        main(["quality", "--rtt", "320", "--loss", "0.012", "--jitter", "12"])
        out = capsys.readouterr().out
        mos = float(out.split("MOS = ")[1].split()[0])
        assert 2.0 < mos < 4.0

    def test_invalid_metrics_exit_code(self, capsys):
        assert main(["quality", "--rtt", "-5", "--loss", "0", "--jitter", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestTraceCommand:
    def test_writes_loadable_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main([
            "trace", "--calls", "500", "--days", "4", "--countries", "8",
            "--relays", "5", "--out", str(out),
        ])
        assert code == 0
        assert "wrote 500 calls" in capsys.readouterr().out
        loaded = TraceDataset.load_jsonl(out)
        assert len(loaded) == 500
        assert loaded.n_days == 4


class TestSimulateCommand:
    def test_small_run_prints_table(self, capsys):
        code = main([
            "simulate", "--calls", "1500", "--days", "5", "--countries", "8",
            "--relays", "5", "--no-strawmen", "--min-pair-calls", "20",
            "--warmup-days", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out and "via" in out and "oracle" in out
        assert "PNR" in out


class TestTestbedCommand:
    def test_small_deployment(self, capsys):
        code = main([
            "testbed", "--clients", "6", "--pairs", "3",
            "--measurement-rounds", "2", "--via-rounds", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "within 20% of oracle" in out


class TestTraceReuse:
    def test_simulate_from_saved_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--calls", "1200", "--days", "5", "--countries", "8",
            "--relays", "5", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        code = main([
            "simulate", "--trace-in", str(out), "--days", "5", "--countries", "8",
            "--relays", "5", "--no-strawmen", "--min-pair-calls", "15",
            "--warmup-days", "1",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "1,200 calls" in text


class TestFullReport:
    def test_simulate_full_report(self, capsys):
        code = main([
            "simulate", "--calls", "1500", "--days", "5", "--countries", "8",
            "--relays", "5", "--no-strawmen", "--min-pair-calls", "20",
            "--warmup-days", "1", "--full-report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PNR by strategy" in out
        assert "Relay mix" in out
        assert "±" in out


class TestStoreCommand:
    """`repro store inspect|verify|compact` exit-code contract:
    0 = clean, 1 = damage found (verify), 2 = not a store directory."""

    @pytest.fixture()
    def healthy_store(self, tmp_path):
        from repro.verify.crashpoints import record_workload

        root = tmp_path / "store"
        record_workload(root, n_rounds=6, seed=3)
        return root

    @pytest.mark.parametrize("action", ["inspect", "verify", "compact"])
    def test_missing_directory_exits_2(self, tmp_path, action, capsys):
        assert main(["store", action, str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_directory_is_clean(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["store", "inspect", str(empty)]) == 0
        assert "no WAL segments" in capsys.readouterr().out
        assert main(["store", "verify", str(empty)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_healthy_store_verifies_clean(self, healthy_store, capsys):
        assert main(["store", "inspect", str(healthy_store)]) == 0
        out = capsys.readouterr().out
        assert "wal-00000001.seg" in out
        assert "ok" in out
        assert main(["store", "verify", str(healthy_store)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_frame_fails_verify_but_not_inspect(self, healthy_store, capsys):
        from repro.store.wal import segment_paths

        segment = segment_paths(healthy_store / "wal")[0]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        # inspect is a read-only listing: it reports damage, exit 0.
        assert main(["store", "inspect", str(healthy_store)]) == 0
        capsys.readouterr()
        assert main(["store", "verify", str(healthy_store)]) == 1
        assert "DAMAGED" in capsys.readouterr().out

    def test_torn_tail_alone_verifies_clean(self, capsys):
        # The committed store: 125 records, no corrupt frame, and the torn
        # final frame a kill mid-append leaves, which recovery drops.
        fixture = Path(__file__).parent / "fixtures" / "store-seed7"
        assert main(["store", "verify", str(fixture)]) == 0
        out = capsys.readouterr().out
        assert "clean (torn tail dropped)" in out and "DAMAGED" not in out
        assert re.search(r"torn segments\s*\|?\s*1", out)
        assert re.search(r"corrupt frames\s*\|?\s*0", out)

    def test_corrupt_snapshot_fails_verify(self, healthy_store, capsys):
        (healthy_store / "snapshot.json").write_text("{not json", encoding="utf-8")
        assert main(["store", "verify", str(healthy_store)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out and "corrupt" in out

    def test_compact_then_verify_stays_clean(self, healthy_store, capsys):
        assert main(["store", "compact", str(healthy_store)]) == 0
        assert "Compaction" in capsys.readouterr().out
        assert main(["store", "verify", str(healthy_store)]) == 0
        assert "clean" in capsys.readouterr().out
