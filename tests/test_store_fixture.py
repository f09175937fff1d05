"""The store directory on disk: a committed snapshot, WAL tail and torn frame.

``tests/fixtures/store-seed7/`` was written by ``scripts/store_fixture.py``
(which says how to regenerate it): a snapshot, two sealed WAL segments and
an active one whose last frame is torn, holding v1-era records (hellos
without ``protocol``, requests and measurements as values) and v2 wire
lines (hellos with ``"protocol":2``, requests and measurements with a
``corr_id``).  Pinned against it: the script writes exactly its bytes, and
the directory recovers to a pinned ``controller_fingerprint`` with one torn
segment and nothing damaged.  A build that renamed a record field would
recover the old directory differently; planted renames show the pin sees
it.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

from repro.core.policy import ViaConfig
from repro.deployment.controller import ViaController
from repro.store import Store, recover
from repro.store.wal import SEGMENT_MAGIC, encode_frame, read_segment, segment_paths
from repro.verify import controller_fingerprint
from scripts.store_fixture import FIXTURE, SEED, write_store

pytestmark = pytest.mark.store

#: sha256 of ``controller_fingerprint`` of the fixture's recovered state.
FINGERPRINT_SHA256 = "e23e1e8362170cf3769a4caa89898cdcc4910eed8df43bc5d03cb1bbc9aa96df"
#: What recovery replays after the snapshot: the torn measurement is lost.
REPLAYED_BY_KIND = {"hello": 6, "request": 60, "measurement": 59}


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _recovered(root: Path):
    store = Store(root)
    controller = ViaController(ViaConfig(seed=SEED))
    try:
        report = recover(store, controller)
    finally:
        store.close()
    fingerprint = hashlib.sha256(controller_fingerprint(controller).encode("utf-8")).hexdigest()
    return report, fingerprint


def _matches_the_pin(root: Path) -> bool:
    report, fingerprint = _recovered(root)
    return (
        report.snapshot_outcome == "ok"
        and report.n_torn_segments == 1
        and report.n_corrupt == 0
        and report.replayed_by_kind == REPLAYED_BY_KIND
        and fingerprint == FINGERPRINT_SHA256
    )


@pytest.fixture
def store_copy(tmp_path) -> Path:
    """A copy of the fixture in a temporary directory: opening a store may
    write to it."""
    root = tmp_path / "store"
    shutil.copytree(FIXTURE, root)
    return root


class TestStoreFixture:
    def test_the_fixture_is_small(self):
        assert sum(len(data) for data in _files(FIXTURE).values()) < 200_000

    def test_the_fixture_holds_every_shape(self):
        segments = [read_segment(path) for path in segment_paths(FIXTURE / "wal")]
        assert len(segments) >= 3
        assert [s.torn for s in segments] == [False] * (len(segments) - 1) + [True]
        assert all(s.n_corrupt == 0 for s in segments)
        records = [r for s in segments for r in s.records]
        shapes = {(r["kind"], "protocol" in r, "corr_id" in r) for r in records}
        assert {("hello", False, False), ("hello", True, False)} <= shapes
        for kind in ("request", "measurement"):
            assert {(kind, False, False), (kind, False, True)} <= shapes
        assert (FIXTURE / "snapshot.json").is_file()

    def test_the_script_writes_the_fixture(self, tmp_path):
        assert _files(write_store(tmp_path / "store")) == _files(FIXTURE)

    def test_the_fixture_recovers_to_the_pinned_fingerprint(self, store_copy):
        report, fingerprint = _recovered(store_copy)
        assert report.snapshot_outcome == "ok" and report.snapshot_seq > 0
        assert report.n_torn_segments == 1
        assert report.n_corrupt == 0
        assert report.replayed_by_kind == REPLAYED_BY_KIND
        assert fingerprint == FINGERPRINT_SHA256

    @pytest.mark.parametrize(
        "kind,old,new",
        [("measurement", "rtt_ms", "rtt"), ("hello", "site", "site_label"),
         ("request", "options", "menu")],
    )
    def test_a_renamed_record_field_fails_the_pin(self, store_copy, kind, old, new):
        """Every sealed segment rewritten as a build that renamed one
        field would have written it (each frame re-framed, so no frame is
        damaged): today's build must not recover it to the pin."""
        renamed = 0
        for path in segment_paths(store_copy / "wal"):
            segment = read_segment(path)
            if segment.torn:
                continue
            frames = []
            for record in segment.records:
                if record["kind"] == kind:
                    record = {new if k == old else k: v for k, v in record.items()}
                    renamed += 1
                frames.append(encode_frame(record))
            path.write_bytes(SEGMENT_MAGIC + b"".join(frames))
        assert renamed
        assert not _matches_the_pin(store_copy)

    def test_the_unchanged_copy_matches_the_pin(self, store_copy):
        for path in segment_paths(store_copy / "wal"):
            segment = read_segment(path)
            if not segment.torn:
                path.write_bytes(SEGMENT_MAGIC + b"".join(map(encode_frame, segment.records)))
        assert _matches_the_pin(store_copy)
