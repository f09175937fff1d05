"""Append-only write-ahead log of controller records.

Every state-changing message the controller handles (hello, measurement,
assignment request) is framed and appended here *before* the policy acts
on it, so a crash loses at most the record currently in flight -- the
paper's controller learns from every call (§4), and without a log every
measurement since the last snapshot would vanish with the process.

On-disk format, one segment file at a time (``wal-00000001.seg``, ...):

* an 8-byte magic prefix (:data:`SEGMENT_MAGIC`);
* a sequence of frames ``[u32 length][u32 crc32][payload]``
  (little-endian header, JSON payload).  Each payload is one flat JSON
  object: a global monotone ``seq``, a ``kind``, then the wire line the
  peer sent minus its opening brace (:meth:`WriteAheadLog.append_line`
  encodes nothing) or, through :meth:`WriteAheadLog.append`, the members
  of a dict: ``json.dumps`` it, then the same splice.

Writers append through an unbuffered file handle, so a killed *process*
loses nothing that was appended; the :class:`WriteAheadLog` fsync policy
(``always`` / ``batch`` / ``off``) decides what a *power loss* can take.
Segments rotate by size, record count, or age; sealed segments are
immutable and become the unit of truncation and compaction.

The reader is deliberately paranoid: a torn final frame (the crash
happened mid-append) is silently dropped, a mid-segment CRC mismatch is
skipped with a counted error, and an implausible length field stops the
segment instead of seeking into garbage.  Recovery never raises on a
damaged log; it salvages everything salvageable and reports the rest.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.store.io import fsync_dir, fsync_file

__all__ = [
    "SEGMENT_MAGIC",
    "MAX_RECORD_BYTES",
    "FSYNC_POLICIES",
    "SegmentInfo",
    "SegmentReadResult",
    "WalReadResult",
    "WriteAheadLog",
    "encode_frame",
    "read_segment",
    "read_wal",
]

#: First 8 bytes of every segment file.
SEGMENT_MAGIC = b"VIAWAL1\n"

#: Frame header: payload length then CRC32 of the payload.
_HEADER = struct.Struct("<II")

#: Upper bound on one record's payload; a length field above this is
#: treated as framing corruption (stop the segment) rather than trusted.
MAX_RECORD_BYTES = 1 << 24

#: Supported fsync policies, strongest first.
FSYNC_POLICIES = ("always", "batch", "off")

_SEGMENT_GLOB = "wal-*.seg"


def _segment_name(index: int) -> str:
    return f"wal-{index:08d}.seg"


def _segment_index(path: Path) -> int:
    return int(path.stem.split("-")[1])


#: What goes in front of a logged wire line, by the kinds the store logs.
_LINE_HEAD = {
    kind: b'{"seq":%d,"kind":"' + kind.encode() + b'",'
    for kind in ("hello", "measurement", "request")
}
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(record: dict | bytes) -> bytes:
    """One record's on-disk frame: header + JSON payload, from the record's
    values (``seq`` and ``kind`` among them) or its ready-made payload."""
    payload = record if isinstance(record, bytes) else _dumps(record).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(f"record exceeds {MAX_RECORD_BYTES} bytes: {len(payload)}")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(slots=True)
class SegmentInfo:
    """A sealed (immutable) segment and the seq range it covers."""

    path: Path
    first_seq: int
    last_seq: int
    n_records: int
    size_bytes: int


@dataclass(slots=True)
class SegmentReadResult:
    """Everything salvageable from one segment file."""

    records: list[dict] = field(default_factory=list)
    #: Frames skipped for a CRC mismatch, undecodable JSON, a missing
    #: seq/kind, or an implausible length field.
    n_corrupt: int = 0
    #: True when the file ends in an incomplete frame (crash mid-append).
    torn: bool = False


@dataclass(slots=True)
class WalReadResult:
    """A whole log directory's salvageable records, in seq order."""

    records: list[dict] = field(default_factory=list)
    n_corrupt: int = 0
    n_torn_segments: int = 0
    n_segments: int = 0


def read_segment(path: str | Path) -> SegmentReadResult:
    """Read one segment, tolerating torn tails and corrupt frames.

    Never raises on damaged *content*: CRC mismatches and undecodable
    payloads are skipped (counted in ``n_corrupt``), an incomplete final
    frame sets ``torn``, and a length field larger than
    :data:`MAX_RECORD_BYTES` (or pointing past a non-final position that
    still fails its CRC) abandons the rest of the segment as one counted
    error -- frame boundaries downstream of garbage cannot be trusted.
    """
    data = Path(path).read_bytes()
    result = SegmentReadResult()
    if not data.startswith(SEGMENT_MAGIC):
        # Not a segment (or the header itself is damaged): nothing inside
        # can be framed out reliably.
        if data:
            result.n_corrupt += 1
        return result
    offset = len(SEGMENT_MAGIC)
    end = len(data)
    while offset < end:
        if end - offset < _HEADER.size:
            result.torn = True
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            result.n_corrupt += 1
            break
        start = offset + _HEADER.size
        if start + length > end:
            result.torn = True
            break
        payload = data[start : start + length]
        offset = start + length
        if zlib.crc32(payload) != crc:
            result.n_corrupt += 1
            continue
        try:
            record = json.loads(payload)
        except json.JSONDecodeError:
            result.n_corrupt += 1
            continue
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("seq"), int)
            or not isinstance(record.get("kind"), str)
        ):
            result.n_corrupt += 1
            continue
        result.records.append(record)
    return result


def segment_paths(directory: str | Path) -> list[Path]:
    """All segment files under ``directory``, oldest first."""
    return sorted(Path(directory).glob(_SEGMENT_GLOB), key=_segment_index)


def read_wal(directory: str | Path, *, after_seq: int = 0) -> WalReadResult:
    """Read every segment in order, keeping records with ``seq > after_seq``.

    A segment that vanishes between the directory listing and the read
    (a concurrent compaction deleted it) is skipped, not an
    error: compaction only ever deletes snapshot-covered segments, whose
    records a reader filtering on ``after_seq`` would discard anyway.
    """
    result = WalReadResult()
    for path in segment_paths(directory):
        try:
            seg = read_segment(path)
        except FileNotFoundError:
            continue
        result.n_segments += 1
        result.n_corrupt += seg.n_corrupt
        if seg.torn:
            result.n_torn_segments += 1
        result.records.extend(r for r in seg.records if r["seq"] > after_seq)
    return result


def check_settings(
    fsync: str,
    batch_every: int,
    max_segment_bytes: int,
    max_segment_records: int | None,
    max_segment_age_s: float | None,
) -> None:
    """Raise ``ValueError``, naming the setting, for a value
    :class:`WriteAheadLog` cannot run with; :class:`~repro.store.StoreConfig`
    runs the same check when it is built."""
    if fsync not in FSYNC_POLICIES:
        raise ValueError(f"unknown fsync policy {fsync!r}; expected {FSYNC_POLICIES}")
    minimums = [
        ("batch_every", batch_every, 1),
        ("max_segment_bytes", max_segment_bytes, len(SEGMENT_MAGIC) + _HEADER.size),
    ]
    if max_segment_records is not None:
        minimums.append(("max_segment_records", max_segment_records, 1))
    for name, value, least in minimums:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ValueError(f"{name} must be an int >= {least}: {value!r}")
    if max_segment_age_s is not None and (
        isinstance(max_segment_age_s, bool)
        or not isinstance(max_segment_age_s, numbers.Real)
        or not 0.0 < max_segment_age_s < math.inf
    ):
        raise ValueError(f"max_segment_age_s must be finite and > 0: {max_segment_age_s!r}")


class WriteAheadLog:
    """Segmented append-only log with a global sequence number.

    ``fsync`` policy:

    * ``always`` -- fsync after every append (survives power loss at the
      cost of one disk flush per record);
    * ``batch``  -- fsync every ``batch_every`` appends and on
      seal/close/:meth:`sync` (bounded power-loss window);
    * ``off``    -- never fsync; the OS writeback decides (process kills
      are still safe because appends bypass userspace buffering).

    Rotation seals the active segment when it exceeds
    ``max_segment_bytes``, ``max_segment_records``, or
    ``max_segment_age_s`` (checked after each append).  Sealed segments
    are immutable; on re-opening a directory the log *never* appends to
    an existing file (its tail may be torn) -- it starts a fresh segment
    after scanning the old ones for the highest surviving ``seq``.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "batch",
        batch_every: int = 64,
        max_segment_bytes: int = 1 << 20,
        max_segment_records: int | None = None,
        max_segment_age_s: float | None = None,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_settings(
            fsync, batch_every, max_segment_bytes, max_segment_records, max_segment_age_s
        )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.batch_every = batch_every
        self.max_segment_bytes = max_segment_bytes
        self.max_segment_records = max_segment_records
        self.max_segment_age_s = max_segment_age_s
        self._clock = clock
        self._registry = registry if registry is not None else MetricsRegistry()
        self._obs_appends = self._registry.counter(
            "via_store_records_appended_total",
            "WAL records appended, by record kind.",
            ("kind",),
        )
        self._obs_fsyncs = self._registry.counter(
            "via_store_fsyncs_total",
            "fsync calls issued by the write-ahead log.",
        )
        self._obs_segments = self._registry.gauge(
            "via_store_segments",
            "Segment files currently on disk (sealed + active).",
        )
        self._obs_bytes = self._registry.counter(
            "via_store_bytes_appended_total",
            "Frame bytes appended to the write-ahead log.",
        )
        self._appended: dict[str, Any] = {}  # the counter's children, by kind

        self.last_seq = 0
        self._sealed: list[SegmentInfo] = []
        self._fh = None
        self._active_path: Path | None = None
        self._active_first_seq = 0
        self._active_records = 0
        self._active_bytes = 0
        self._active_opened_at = 0.0
        self._pending_sync = 0
        self._next_index = 1
        self._scan_existing()
        self._update_segment_gauge()

    # ------------------------------------------------------------------
    # Startup scan
    # ------------------------------------------------------------------

    def _scan_existing(self) -> None:
        """Index pre-existing segments and recover the highest seq.

        Damaged frames are ignored here (the recovery path counts them);
        the scan only needs seq bounds to resume numbering and to know
        which sealed files cover which records.
        """
        for path in segment_paths(self.directory):
            try:
                seg = read_segment(path)
                size_bytes = path.stat().st_size
            except FileNotFoundError:
                # Deleted under us by a compaction still finishing against
                # the previous (crashed) log instance: its records are
                # snapshot-covered, so the scan just moves on.
                continue
            seqs = [r["seq"] for r in seg.records]
            info = SegmentInfo(
                path=path,
                first_seq=min(seqs) if seqs else 0,
                last_seq=max(seqs) if seqs else 0,
                n_records=len(seg.records),
                size_bytes=size_bytes,
            )
            self._sealed.append(info)
            self.last_seq = max(self.last_seq, info.last_seq)
            self._next_index = max(self._next_index, _segment_index(path) + 1)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, record: dict) -> int:
        """Append one record given as values (``kind`` among them, ``seq``
        not: it is the log's to assign); returns its assigned ``seq``."""
        if "seq" in record:
            raise ValueError("seq is the log's to assign")
        body = _dumps(record).encode("utf-8")
        return self._append(str(record.get("kind", "?")), b'{"seq":%d,', body)

    def append_line(self, kind: str, line: bytes) -> int:
        """Append a ``hello``/``measurement``/``request`` as the wire line
        the peer sent; returns its assigned ``seq``.  ``decode_message``
        accepted ``line``, so it is the text of a JSON object with no
        ``seq`` or ``kind`` member: no logged message class declares one."""
        if kind not in _LINE_HEAD:
            raise ValueError(f"not a logged kind: {kind!r}")
        return self._append(kind, _LINE_HEAD[kind], line.strip())

    def _append(self, kind: str, head: bytes, body: bytes) -> int:
        """Splice ``head`` onto ``body`` minus its opening brace, frame it
        and write it.  The frame reaches the OS before this returns
        (unbuffered write); whether it reaches the *disk* is the fsync
        policy's call."""
        members = body[1:]
        if body[:1] != b"{" or body[-1:] != b"}" or members.lstrip()[:1] == b"}":
            raise ValueError(f"not the text of a non-empty JSON object: {body[:40]!r}")
        seq = self.last_seq + 1
        frame = encode_frame(head % seq + members)
        fh = self._ensure_active(seq)
        try:
            if fh.write(frame) != len(frame):
                raise OSError(f"short write of a {len(frame)}-byte WAL frame")
        except OSError:
            self._seal_torn()
            raise
        self.last_seq = seq
        self._active_records += 1
        self._active_bytes += len(frame)
        self._pending_sync += 1
        if kind not in self._appended:
            self._appended[kind] = self._obs_appends.labels(kind=kind)
        self._appended[kind].inc()
        self._obs_bytes.inc(len(frame))
        if self.fsync == "always" or (
            self.fsync == "batch" and self._pending_sync >= self.batch_every
        ):
            self.sync()
        if self._should_rotate():
            self.rotate()
        return seq

    def _ensure_active(self, first_seq: int):
        if self._fh is None:
            path = self.directory / _segment_name(self._next_index)
            self._next_index += 1
            # buffering=0: every write goes straight to the OS, so a
            # killed process never loses an acknowledged append.
            fh = open(path, "ab", buffering=0)
            fh.write(SEGMENT_MAGIC)
            self._fh = fh  # only behind its magic: a failed write above leaves none
            self._active_path = path
            self._active_first_seq = first_seq
            self._active_records = 0
            self._active_bytes = len(SEGMENT_MAGIC)
            self._active_opened_at = self._clock()
            self._pending_sync = 0
            self._sync_directory()
            self._update_segment_gauge()
        return self._fh

    def _should_rotate(self) -> bool:
        if self._fh is None:
            return False
        if self._active_bytes >= self.max_segment_bytes:
            return True
        if (
            self.max_segment_records is not None
            and self._active_records >= self.max_segment_records
        ):
            return True
        if (
            self.max_segment_age_s is not None
            and self._clock() - self._active_opened_at >= self.max_segment_age_s
        ):
            return True
        return False

    def _seal_torn(self) -> None:
        """Part of a frame may be on disk: never append after it (the rule
        reopening a directory applies).  The next append opens a fresh
        segment and reuses the seq."""
        self._active_bytes = self._active_path.stat().st_size
        try:
            self.rotate()
        except OSError:  # the disk refuses the seal's fsync too: seal without it
            self._pending_sync = 0
            self.rotate()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush the active segment to disk (any policy)."""
        if self._fh is not None and self._pending_sync > 0:
            fsync_file(self._fh.fileno())
            self._obs_fsyncs.inc()
            self._pending_sync = 0

    def _sync_directory(self) -> None:
        """Persist the directory's entries (a segment made or deleted),
        except under ``off``, which leaves them to the OS like the data."""
        if self.fsync != "off":
            fsync_dir(self.directory)

    def rotate(self) -> SegmentInfo | None:
        """Seal the active segment (if it holds records) and start fresh.

        Returns the sealed :class:`SegmentInfo`, or None when there was
        nothing to seal.  An empty active segment file is removed rather
        than sealed, so snapshots taken back-to-back don't litter.
        """
        if self._fh is None:
            return None
        if self.fsync != "off":
            self.sync()
        self._fh.close()
        self._fh = None
        assert self._active_path is not None
        if self._active_records == 0:
            self._active_path.unlink()
            self._sync_directory()
            self._active_path = None
            self._update_segment_gauge()
            return None
        info = SegmentInfo(
            path=self._active_path,
            first_seq=self._active_first_seq,
            last_seq=self.last_seq,
            n_records=self._active_records,
            size_bytes=self._active_bytes,
        )
        self._sealed.append(info)
        self._active_path = None
        self._update_segment_gauge()
        return info

    def close(self) -> None:
        """Seal the active segment and release the file handle."""
        self.rotate()

    # ------------------------------------------------------------------
    # Introspection and truncation
    # ------------------------------------------------------------------

    @property
    def active_path(self) -> Path | None:
        """The segment currently being appended to, if any."""
        return self._active_path

    def sealed_segments(self) -> list[SegmentInfo]:
        """Immutable sealed segments, oldest first."""
        return list(self._sealed)

    def drop_segments(self, infos: Iterable[SegmentInfo]) -> int:
        """Delete sealed segments; returns the bytes reclaimed."""
        doomed = list(infos)
        reclaimed = 0
        for info in doomed:
            info.path.unlink(missing_ok=True)
            reclaimed += info.size_bytes
        doomed_paths = {info.path for info in doomed}
        self._sealed = [s for s in self._sealed if s.path not in doomed_paths]
        if doomed:
            self._sync_directory()
        self._update_segment_gauge()
        return reclaimed

    def _update_segment_gauge(self) -> None:
        count = len(self._sealed) + (1 if self._active_path is not None else 0)
        self._obs_segments.set(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog(dir={str(self.directory)!r}, last_seq={self.last_seq}, "
            f"sealed={len(self._sealed)}, fsync={self.fsync!r})"
        )
