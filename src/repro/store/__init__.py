"""Durable storage plane: WAL, snapshot + replay recovery, log truncation.

The controller's learned state must survive crashes without ever
outgrowing disk (the paper's controller learns from *every* call, §4).
This package provides that as two cooperating layers:

* :mod:`repro.store.wal` -- an append-only write-ahead log of
  measurement/assignment records (length + CRC32 framing, segment
  rotation, ``always``/``batch``/``off`` fsync policies, a damage-
  tolerant reader);
* :mod:`repro.store.recovery` -- restores a controller as snapshot +
  WAL-tail replay, reproducing exactly the in-memory state an
  uninterrupted controller would hold.

:class:`~repro.store.facade.Store` ties them together under one
directory.  Compaction is deletion: every snapshot (and
``Store.compact()``) removes the sealed segments it covers, so disk is
bounded by the records since the last snapshot.  ``python -m repro store
inspect|verify|compact <dir>`` is the operator tooling.
"""

from repro.store.facade import (
    SNAPSHOT_FORMAT,
    CompactionResult,
    SnapshotSource,
    Store,
    StoreConfig,
)
from repro.store.io import atomic_write_bytes, atomic_write_json, fsync_dir, fsync_file
from repro.store.recovery import RecoveryReport, RecoveryTarget, recover
from repro.store.wal import (
    FSYNC_POLICIES,
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    SegmentInfo,
    SegmentReadResult,
    WalReadResult,
    WriteAheadLog,
    encode_frame,
    read_segment,
    read_wal,
)

__all__ = [
    "Store",
    "StoreConfig",
    "SnapshotSource",
    "SNAPSHOT_FORMAT",
    "WriteAheadLog",
    "SegmentInfo",
    "SegmentReadResult",
    "WalReadResult",
    "encode_frame",
    "read_segment",
    "read_wal",
    "SEGMENT_MAGIC",
    "MAX_RECORD_BYTES",
    "FSYNC_POLICIES",
    "CompactionResult",
    "recover",
    "RecoveryReport",
    "RecoveryTarget",
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_file",
    "fsync_dir",
]
