"""The durable-store facade the controller talks to.

One :class:`Store` owns one on-disk layout::

    <root>/
      wal/wal-00000001.seg ...   append-only record log (repro.store.wal)
      snapshot.json              latest full snapshot + the seq it covers

The write path is *log-before-act*: the controller appends a record for
every state-changing message before the policy sees it, so a crashed
controller is exactly reconstructible as snapshot + WAL-tail replay
(:mod:`repro.store.recovery`).  The record *is* the message: the server
hands :meth:`Store.log_line` the wire line it validated and nothing is
encoded on the way to disk; the typed ``log_*`` helpers are thin wrappers
over it that now serve only ``perf/`` and the store's own tests.
Snapshots cut the log down: taking one rotates the active segment and
deletes, unread, every sealed segment it now covers -- after which disk
holds one snapshot and only the records since.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol

from repro.obs.metrics import MetricsRegistry
from repro.store.io import atomic_write_json
from repro.store.wal import WalReadResult, WriteAheadLog, _dumps, check_settings, read_wal

__all__ = [
    "SNAPSHOT_FORMAT",
    "StoreConfig",
    "Store",
    "SnapshotSource",
    "CompactionResult",
]

SNAPSHOT_FORMAT = "via-store-snapshot-v1"


class SnapshotSource(Protocol):
    """Anything whose full state can be captured as a JSON dict."""

    def snapshot_dict(self) -> dict: ...


@dataclass(frozen=True, slots=True)
class CompactionResult:
    """What one compaction pass reclaimed."""

    n_segments: int
    bytes_reclaimed: int


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """Durability knobs for one :class:`Store`."""

    #: WAL fsync policy: ``always`` / ``batch`` / ``off``.
    fsync: str = "batch"
    #: Appends between fsyncs under the ``batch`` policy.
    batch_every: int = 64
    #: Size-based segment rotation threshold.
    max_segment_bytes: int = 1 << 20
    #: Record-count rotation threshold (None = size/age only).
    max_segment_records: int | None = None
    #: Age-based rotation threshold in seconds (None = off).
    max_segment_age_s: float | None = None
    #: Auto-snapshot after this many appended records (0 = only on stop).
    snapshot_every_records: int = 0

    def __post_init__(self) -> None:
        check_settings(
            self.fsync,
            self.batch_every,
            self.max_segment_bytes,
            self.max_segment_records,
            self.max_segment_age_s,
        )
        every = self.snapshot_every_records
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 0:
            raise ValueError(f"snapshot_every_records must be an int >= 0: {every!r}")


class Store:
    """Write-ahead log + snapshot under one root."""

    def __init__(
        self,
        root: str | Path,
        config: StoreConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        self.config = config or StoreConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.wal = WriteAheadLog(
            self.root / "wal",
            fsync=self.config.fsync,
            batch_every=self.config.batch_every,
            max_segment_bytes=self.config.max_segment_bytes,
            max_segment_records=self.config.max_segment_records,
            max_segment_age_s=self.config.max_segment_age_s,
            registry=self.registry,
        )
        self._obs_snapshots = self.registry.counter(
            "via_store_snapshots_total",
            "Snapshots written into the store.",
        )
        self._obs_compactions = self.registry.counter(
            "via_store_compactions_total",
            "Compaction passes that deleted at least one segment.",
        )
        # Seq numbering must survive compaction: after a clean shutdown
        # every segment is deleted, so a reopened WAL's directory scan
        # finds nothing and would restart at 0 -- while the snapshot still
        # covers a higher seq, hiding every new record from recovery.
        # Parsed once per start: the payload read here for its seq is kept
        # for the read_snapshot() that recovery makes next, then dropped.
        self._opened_snapshot: tuple[dict | None, int] | None = None
        try:
            self._opened_snapshot = self.read_snapshot()
        except (ValueError, KeyError, OSError):
            pass  # corrupt: recovery re-reads it and reports
        covered = self._opened_snapshot[1] if self._opened_snapshot else 0
        self.wal.last_seq = max(self.wal.last_seq, covered)
        self._records_since_snapshot = self.wal.last_seq - covered

    @property
    def snapshot_path(self) -> Path:
        return self.root / "snapshot.json"

    # ------------------------------------------------------------------
    # Logging (the controller's log-before-act hooks)
    # ------------------------------------------------------------------

    def log_line(self, kind: str, line: bytes) -> int:
        """Record a hello, measurement or request as the wire line its peer sent."""
        seq = self.wal.append_line(kind, line)
        self._records_since_snapshot += 1
        return seq

    def _log_values(self, kind: str, **fields: Any) -> int:
        # The typed helpers below hold values and no line; the server logs lines.
        return self.log_line(kind, _dumps(fields).encode("utf-8"))

    def log_hello(self, client_id: int, site: str) -> int:
        """Record a client introduction (site labels survive crashes)."""
        return self._log_values("hello", client_id=client_id, site=site)

    def log_measurement(
        self,
        src_id: int,
        dst_id: int,
        t_hours: float,
        option: dict[str, Any],
        rtt_ms: float,
        loss_rate: float,
        jitter_ms: float,
        *,
        src_site: str = "?",
        dst_site: str = "?",
    ) -> int:
        """Record one completed call's measurement before the policy learns
        it.  The site labels are accepted and not recorded: nothing read them."""
        return self._log_values(
            "measurement", src_id=src_id, dst_id=dst_id, t_hours=t_hours, option=option,
            rtt_ms=rtt_ms, loss_rate=loss_rate, jitter_ms=jitter_ms,
        )

    def log_request(
        self,
        src_id: int,
        dst_id: int,
        t_hours: float,
        options: list[dict[str, Any]],
    ) -> int:
        """Record an assignment request before answering it: assignment
        consumes the policy's RNG and builds bandit state, so a recovery
        that replayed only measurements would choose *differently*."""
        return self._log_values(
            "request", src_id=src_id, dst_id=dst_id, t_hours=t_hours, options=options
        )

    # ------------------------------------------------------------------
    # Snapshots and compaction
    # ------------------------------------------------------------------

    def should_snapshot(self) -> bool:
        """Is the auto-snapshot threshold reached?"""
        return (
            self.config.snapshot_every_records > 0
            and self._records_since_snapshot >= self.config.snapshot_every_records
        )

    def snapshot(self, source: SnapshotSource) -> Path:
        """Capture ``source`` and delete the now-covered log.

        Writes the snapshot atomically (fsynced), rotates the active
        segment, and deletes every sealed segment the snapshot covers.
        """
        last_seq = self.wal.last_seq
        self._opened_snapshot = None
        atomic_write_json(
            self.snapshot_path,
            {
                "format": SNAPSHOT_FORMAT,
                "last_seq": last_seq,
                "controller": source.snapshot_dict(),
            },
        )
        self._obs_snapshots.inc()
        self.wal.rotate()
        self._drop_covered(last_seq)
        self._records_since_snapshot = self.wal.last_seq - last_seq
        return self.snapshot_path

    def compact(self) -> CompactionResult:
        """Delete the sealed segments the latest snapshot covers.

        Without a snapshot nothing is eligible: every record would still
        be needed for exact recovery.
        """
        return self._drop_covered(self.snapshot_seq())

    def _drop_covered(self, cover_seq: int) -> CompactionResult:
        # Only segments whose every record the snapshot covers: recovery
        # replays the rest.  They are deleted unread -- nothing needs them.
        covered = [s for s in self.wal.sealed_segments() if s.last_seq <= cover_seq]
        if not covered:
            return CompactionResult(0, 0)
        reclaimed = self.wal.drop_segments(covered)
        self._obs_compactions.inc()
        return CompactionResult(len(covered), reclaimed)

    # ------------------------------------------------------------------
    # Reading (recovery and tooling)
    # ------------------------------------------------------------------

    def read_snapshot(self) -> tuple[dict | None, int]:
        """(snapshot payload, covered seq); (None, 0) when none exists.

        Raises on a corrupt snapshot file -- recovery downgrades that to
        a counted outcome, tooling surfaces it.
        """
        opened, self._opened_snapshot = self._opened_snapshot, None
        if opened is not None and opened[0] is not None:
            return opened
        if not self.snapshot_path.exists():
            return None, 0
        payload = json.loads(self.snapshot_path.read_text(encoding="utf-8"))
        if payload.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"unrecognised snapshot format: {payload.get('format')!r}")
        return payload, int(payload["last_seq"])

    def snapshot_seq(self) -> int:
        """The seq covered by the latest snapshot (0 when none/corrupt)."""
        try:
            _payload, seq = self.read_snapshot()
        except (ValueError, KeyError, OSError, json.JSONDecodeError):
            return 0
        return seq

    def records_after(self, seq: int) -> WalReadResult:
        """Every salvageable WAL record with ``record_seq > seq``."""
        self.wal.sync()
        return read_wal(self.wal.directory, after_seq=seq)

    def close(self) -> None:
        """Seal the active segment and release file handles."""
        self.wal.close()
