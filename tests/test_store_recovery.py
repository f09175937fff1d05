"""Crash-recovery equivalence: snapshot + WAL replay rebuilds the controller.

The contract under test: a controller recovered from its durable store
holds *exactly* the state an uninterrupted controller would -- identical
:class:`~repro.core.history.CallHistory`, identical policy RNG position,
and therefore identical future assignments.  Damage (torn tails, CRC
corruption, an unreadable snapshot) is counted, never raised.
"""

from __future__ import annotations

import asyncio
import json
import struct
import weakref

import numpy as np

from repro.core.history import history_to_dict
from repro.core.policy import ViaConfig
from repro.deployment.controller import ViaController
from repro.deployment.protocol import (
    MeasurementMessage,
    RequestMessage,
    encode_option,
)
from repro.netmodel.options import RelayOption
from repro.store import (
    SEGMENT_MAGIC,
    SNAPSHOT_FORMAT,
    Store,
    StoreConfig,
    atomic_write_json,
    recover,
)
from repro.verify import controller_fingerprint

import pytest

pytestmark = [pytest.mark.store, pytest.mark.slow]

_HEADER = struct.Struct("<II")

SITES = {0: "US", 1: "GB", 2: "IN", 3: "SG"}
OPTIONS = [RelayOption.bounce(1), RelayOption.bounce(2), RelayOption.transit(1, 2)]


def make_controller(store_dir=None) -> ViaController:
    """A controller with a deterministic, exploration-heavy policy."""
    config = ViaConfig(metric="rtt_ms", epsilon=0.25, min_direct_samples=1, seed=42)
    return ViaController(config, store=store_dir)


def drive(controller: ViaController, n_rounds: int, *, seed: int = 7) -> list[dict]:
    """Feed a deterministic workload through the live message handlers.

    Interleaves measurements and assignment requests across client pairs,
    exactly as the wire path would (minus the sockets).  Returns the
    assignment choices made, for equivalence comparison.
    """
    rng = np.random.default_rng(seed)
    for cid, site in SITES.items():
        controller._count_message("hello")  # the connection loop counts first
        controller._on_hello(cid, site)
    choices: list[dict] = []
    encoded = [encode_option(o) for o in OPTIONS]
    for i in range(n_rounds):
        src, dst = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        if src == dst:
            dst = (dst + 1) % 4
        t_hours = 0.1 + i * 0.02
        option = OPTIONS[int(rng.integers(0, len(OPTIONS)))]
        controller._count_message("measurement")
        controller._on_measurement(MeasurementMessage(
            src_id=src, dst_id=dst, t_hours=t_hours,
            option=encode_option(option),
            rtt_ms=float(80 + rng.integers(0, 100)),
            loss_rate=float(rng.uniform(0, 0.05)),
            jitter_ms=float(rng.uniform(0, 20)),
        ))
        controller._count_message("request")
        reply = controller._on_request(RequestMessage(
            src_id=src, dst_id=dst, t_hours=t_hours, options=list(encoded),
        ))
        choices.append(reply.option)
    return choices


def future_choices(controller: ViaController, n: int = 40) -> list[dict]:
    """Post-recovery assignments: the sharpest equivalence probe, because
    they depend on the history, the bandit counts, *and* the RNG stream."""
    encoded = [encode_option(o) for o in OPTIONS]
    return [
        controller._on_request(RequestMessage(
            src_id=i % 3, dst_id=3, t_hours=5.0 + i * 0.01, options=list(encoded),
        ), log=False).option
        for i in range(n)
    ]


def assert_equivalent(recovered: ViaController, twin: ViaController) -> None:
    assert history_to_dict(recovered.policy.history) == history_to_dict(twin.policy.history)
    assert recovered.site_labels == twin.site_labels
    assert recovered.n_measurements == twin.n_measurements
    assert recovered.n_requests == twin.n_requests
    assert future_choices(recovered) == future_choices(twin)


class TestCrashRecoveryEquivalence:
    def test_kill_without_snapshot_full_replay(self, tmp_path):
        """Kill after N messages with no snapshot ever taken: the WAL alone
        must rebuild the exact state."""
        live = make_controller(tmp_path / "store")
        drive(live, 100)
        # Crash: no stop(), no snapshot, no close -- appends are unbuffered,
        # so everything acknowledged is already in the active segment file.
        twin = make_controller()
        drive(twin, 100)

        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.snapshot_outcome == "missing"
        assert report.n_replayed == 100 * 2 + len(SITES)
        assert report.replayed_by_kind == {
            "hello": len(SITES), "measurement": 100, "request": 100,
        }
        assert report.clean
        assert_equivalent(recovered, twin)

    def test_kill_after_snapshot_replays_only_tail(self, tmp_path):
        live = make_controller(tmp_path / "store")
        drive(live, 60, seed=7)
        live.save_store_snapshot()
        snap_seq = live.store.snapshot_seq()
        drive(live, 40, seed=8)  # crash after 40 more rounds

        twin = make_controller()
        drive(twin, 60, seed=7)
        drive(twin, 40, seed=8)

        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.snapshot_outcome == "ok"
        assert report.snapshot_seq == snap_seq > 0
        # Tail only: 40 rounds x (measurement + request) + the re-hellos.
        assert report.n_replayed == 40 * 2 + len(SITES)
        assert_equivalent(recovered, twin)

    def test_a_restart_parses_the_snapshot_once(self, tmp_path, monkeypatch):
        """Opening the store reads the snapshot for its seq; the recovery
        that follows is handed that payload, which is then dropped."""
        from repro.store import facade

        live = make_controller(tmp_path / "store")
        drive(live, 20)
        live.save_store_snapshot()
        drive(live, 5, seed=8)
        parsed = []

        class CountingJson:  # the json module as store/facade.py alone sees it
            JSONDecodeError = json.JSONDecodeError

            @staticmethod
            def loads(text):
                parsed.append(len(text))
                return json.loads(text)

        monkeypatch.setattr(facade, "json", CountingJson)

        store = Store(tmp_path / "store")
        recovered = make_controller()
        report = recover(store, recovered)
        assert report.snapshot_outcome == "ok" and report.n_replayed == 5 * 2 + len(SITES)
        assert len(parsed) == 1
        assert store._opened_snapshot is None
        # A later snapshot is what later readers see.
        store.snapshot(recovered)
        assert store.snapshot_seq() == store.wal.last_seq
        assert len(parsed) == 2

    def test_the_parsed_snapshot_is_released_before_the_replay(self, tmp_path):
        """The parsed tree is a restart's largest object: recover() must let
        it go once restored, not hold it through the whole WAL tail."""

        class Tree(dict):  # a dict that can be watched with a weakref
            pass

        live = make_controller(tmp_path / "store")
        drive(live, 20)
        live.save_store_snapshot()
        drive(live, 5, seed=8)

        store = Store(tmp_path / "store")
        payload, seq = store.read_snapshot()
        payload["controller"] = Tree(payload["controller"])
        released = weakref.ref(payload["controller"])
        handoff = [(payload, seq)]
        store.read_snapshot = handoff.pop  # hands over the only reference
        del payload

        recovered = make_controller()
        alive_at_replay = []

        class Target:
            registry = recovered.registry

            def restore_dict(self, tree):
                recovered.restore_dict(tree)

            def apply_record(self, record):
                alive_at_replay.append(released() is not None)
                recovered.apply_record(record)

        report = recover(store, Target())
        assert report.snapshot_outcome == "ok" and report.n_replayed == 5 * 2 + len(SITES)
        assert alive_at_replay and not any(alive_at_replay)

    def test_crash_between_snapshot_and_segment_drop(self, tmp_path):
        """The snapshot rename landed, the covered segments were never
        deleted: recovery must skip them and the next compaction must
        reclaim them."""
        config = StoreConfig(max_segment_records=50)
        live = make_controller(Store(tmp_path / "store", config))
        drive(live, 60)
        atomic_write_json(live.store.snapshot_path, {
            "format": SNAPSHOT_FORMAT,
            "last_seq": live.store.wal.last_seq,
            "controller": live.snapshot_dict(),
        })  # ... and the process dies here.
        n_leftover = len(list((tmp_path / "store" / "wal").iterdir()))
        assert n_leftover > 1

        twin = make_controller(tmp_path / "twin")
        drive(twin, 60)
        twin.save_store_snapshot()  # uninterrupted: snapshot *and* drop

        recovered = make_controller()
        store = Store(tmp_path / "store", config)
        report = recover(store, recovered)
        assert report.snapshot_outcome == "ok"
        assert report.n_replayed == 0
        assert report.clean
        assert controller_fingerprint(recovered) == controller_fingerprint(twin)

        result = store.compact()
        assert result.n_segments == n_leftover
        assert list((tmp_path / "store" / "wal").iterdir()) == []
        # Numbering still resumes past the snapshot after the full drop.
        assert store.log_hello(9, "US") == live.store.wal.last_seq + 1
        store.close()

    def test_corrupt_snapshot_downgrades_to_full_replay(self, tmp_path):
        live = make_controller(tmp_path / "store")
        drive(live, 50)
        (tmp_path / "store" / "snapshot.json").write_text("{ definitely not json")

        twin = make_controller()
        drive(twin, 50)

        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.snapshot_outcome == "corrupt"
        assert report.snapshot_seq == 0
        assert report.n_replayed == 50 * 2 + len(SITES)
        assert not report.clean
        assert_equivalent(recovered, twin)  # the full log was still there

    def test_wrong_format_snapshot_is_corrupt_not_fatal(self, tmp_path):
        live = make_controller(tmp_path / "store")
        drive(live, 10)
        (tmp_path / "store" / "snapshot.json").write_text(
            json.dumps({"format": "something-else", "last_seq": 3})
        )
        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.snapshot_outcome == "corrupt"
        assert report.n_replayed == 10 * 2 + len(SITES)


class TestDamagedLogRecovery:
    def _segments(self, tmp_path):
        return sorted((tmp_path / "store" / "wal").glob("wal-*.seg"))

    def test_torn_final_record_is_skipped_not_fatal(self, tmp_path):
        live = make_controller(tmp_path / "store")
        drive(live, 30)
        seg = self._segments(tmp_path)[-1]
        seg.write_bytes(seg.read_bytes()[:-9])  # crash mid-append

        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.n_torn_segments == 1
        assert report.n_corrupt == 0
        assert report.n_replayed == 30 * 2 + len(SITES) - 1

    def test_mid_segment_crc_corruption_counted_and_skipped(self, tmp_path):
        live = make_controller(tmp_path / "store")
        drive(live, 30)
        seg = self._segments(tmp_path)[0]
        data = bytearray(seg.read_bytes())
        # Flip one payload byte in the middle of the file.
        data[len(data) // 2] ^= 0xFF
        seg.write_bytes(bytes(data))

        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.n_corrupt >= 1
        assert report.n_replayed < 30 * 2 + len(SITES)
        errors = recovered.registry.get("via_store_read_errors_total")
        assert errors is not None and errors.value_for(reader="recovery") >= 1
        # Recovery proceeds: later records still landed in the history.
        assert recovered.policy.history.total_calls() > 0

    def test_everything_damaged_still_never_raises(self, tmp_path):
        live = make_controller(tmp_path / "store")
        drive(live, 10)
        (tmp_path / "store" / "snapshot.json").write_text("garbage")
        for seg in self._segments(tmp_path):
            seg.write_bytes(SEGMENT_MAGIC + b"\xff" * 64)
        recovered = make_controller()
        report = recover(Store(tmp_path / "store"), recovered)
        assert report.snapshot_outcome == "corrupt"
        assert report.n_replayed == 0
        assert not report.clean


class TestControllerLifecycleWithStore:
    def test_stop_snapshots_and_restart_recovers(self, tmp_path):
        """The full asyncio lifecycle: run, stop (clean snapshot + folded
        log), start again (recovery), with the restore counter recording it."""

        async def first_run():
            async with make_controller(tmp_path / "store") as controller:
                drive(controller, 25)
                return (
                    history_to_dict(controller.policy.history),
                    controller.n_measurements,
                )

        history, n_meas = asyncio.run(first_run())
        assert (tmp_path / "store" / "snapshot.json").exists()

        async def second_run():
            controller = make_controller(tmp_path / "store")
            async with controller:
                restores = controller.registry.get(
                    "via_controller_snapshot_restores_total"
                )
                return (
                    history_to_dict(controller.policy.history),
                    controller.n_measurements,
                    restores.value_for(outcome="ok"),
                )

        history2, n_meas2, ok_restores = asyncio.run(second_run())
        assert history2 == history
        assert n_meas2 == n_meas
        assert ok_restores == 1

    def test_auto_snapshot_threshold_fires_on_the_wire_path(self, tmp_path):
        """Crossing snapshot_every_records while serving real messages
        snapshots mid-run, before any stop()."""
        from repro.deployment.client import TestbedClient
        from repro.netmodel.metrics import PathMetrics
        from repro.store import StoreConfig

        store = Store(tmp_path / "store", StoreConfig(snapshot_every_records=20))
        controller = ViaController(
            ViaConfig(metric="rtt_ms", epsilon=0.25, min_direct_samples=1, seed=42),
            store=store,
        )

        async def run():
            async with controller:
                client = TestbedClient(
                    client_id=0, site="US", host="127.0.0.1", port=controller.port
                )
                await client.connect()
                try:
                    for i in range(30):
                        await client.report_measurement(
                            1, OPTIONS[0],
                            PathMetrics(rtt_ms=100.0, loss_rate=0.01, jitter_ms=5.0),
                            0.1 + i * 0.01,
                        )
                    # Measurements are fire-and-forget; a request/reply
                    # round-trip guarantees they were all handled.
                    await client.fetch_metrics()
                finally:
                    await client.close()
                # Mid-run: the threshold fired at least once already.  The
                # pre-built Store keeps its own registry.
                return store.registry.get("via_store_snapshots_total").value

        mid_run_snapshots = asyncio.run(run())
        assert mid_run_snapshots >= 1
        # stop() added the final fold-down snapshot on top.
        assert store.registry.get("via_store_snapshots_total").value >= 2


class TestRestartThenCrash:
    def test_records_after_clean_restart_survive_a_crash(self, tmp_path):
        """run -> clean stop (snapshot + full compaction) -> run more ->
        crash: the post-restart records must replay on recovery."""

        async def first_run():
            async with make_controller(tmp_path / "store") as controller:
                drive(controller, 20, seed=7)

        asyncio.run(first_run())

        # Second incarnation: crashes (no stop) after 10 more rounds.
        second = make_controller(tmp_path / "store")
        report1 = recover(second.store, second)
        assert report1.snapshot_outcome == "ok"
        drive(second, 10, seed=8)

        twin = make_controller()
        drive(twin, 20, seed=7)
        drive(twin, 10, seed=8)

        recovered = make_controller()
        report2 = recover(Store(tmp_path / "store"), recovered)
        assert report2.snapshot_outcome == "ok"
        # The crash-lost tail: 10 rounds x 2 + the second run's hellos.
        assert report2.n_replayed == 10 * 2 + len(SITES)
        assert history_to_dict(recovered.policy.history) == history_to_dict(
            twin.policy.history
        )
        assert future_choices(recovered) == future_choices(twin)


class TestSnapshotPathRestoreOutcomes:
    """Satellite: the startup restore from ``Store.snapshot_path`` is
    observable, one counted outcome per start."""

    def _controller(self, store_dir) -> ViaController:
        return ViaController(ViaConfig(seed=1), store=store_dir)

    def _start_outcomes(self, store_dir) -> dict[str, float]:
        """Start and stop a controller on ``store_dir``; its counter."""
        controller = self._controller(store_dir)

        async def run():
            async with controller:
                pass

        asyncio.run(run())
        restores = controller.registry.get("via_controller_snapshot_restores_total")
        return {o: restores.value_for(outcome=o) for o in ("missing", "corrupt", "ok")}

    def test_missing(self, tmp_path):
        assert self._start_outcomes(tmp_path / "store") == {
            "missing": 1, "corrupt": 0, "ok": 0,
        }

    def test_corrupt(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "snapshot.json").write_text("{ nope")
        assert self._start_outcomes(store_dir) == {
            "missing": 0, "corrupt": 1, "ok": 0,
        }

    def test_ok(self, tmp_path):
        async def write_run():
            async with self._controller(tmp_path / "store") as controller:
                drive(controller, 5)
                controller.save_store_snapshot()

        asyncio.run(write_run())
        assert self._start_outcomes(tmp_path / "store") == {
            "missing": 0, "corrupt": 0, "ok": 1,
        }

    def test_save_snapshot_leaves_no_tmp_litter(self, tmp_path):
        controller = self._controller(tmp_path / "store")
        drive(controller, 3)
        controller.save_store_snapshot()
        controller.store.close()
        names = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert "snapshot.json" in names
        assert not [n for n in names if n.endswith(".tmp")], names
