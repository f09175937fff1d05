"""Crash recovery: restore a controller as snapshot + WAL-tail replay.

The recovery contract is *equivalence*: a controller recovered from its
store must hold exactly the in-memory state an uninterrupted controller
would -- the same :class:`~repro.core.history.CallHistory`, the same
bandit counts, the same RNG position, and therefore the same future
assignments.  That works because the WAL records every state-changing
input (hello, measurement, assignment request) in handling order, the
snapshot captures full state up to a seq, and replaying the tail through
the controller's own handlers is deterministic.

Damage tolerance: recovery never raises.  A corrupt snapshot downgrades
to a full-log replay (counted as ``outcome="corrupt"`` so operators can
alert on it); torn final frames and mid-segment CRC failures are skipped
with counted errors by the WAL reader; a record that blows up in the
policy is isolated exactly as the live path isolates it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Protocol

from repro.obs.metrics import MetricsRegistry
from repro.store.facade import Store

__all__ = ["RecoveryTarget", "RecoveryReport", "recover"]

logger = logging.getLogger(__name__)


class RecoveryTarget(Protocol):
    """What recovery needs from a controller (duck-typed to avoid a
    dependency on :mod:`repro.deployment`)."""

    def restore_dict(self, payload: dict) -> None: ...

    def apply_record(self, record: dict) -> None: ...


@dataclass(slots=True)
class RecoveryReport:
    """What one recovery pass found and replayed."""

    #: Snapshot fate: ``ok`` (restored), ``missing`` (none on disk, full
    #: replay), or ``corrupt`` (unreadable/unloadable, full replay).
    snapshot_outcome: str = "missing"
    #: Seq the restored snapshot covered (0 for missing/corrupt).
    snapshot_seq: int = 0
    #: WAL records replayed through the target, by kind.
    n_replayed: int = 0
    replayed_by_kind: dict[str, int] = field(default_factory=dict)
    #: Damaged frames the reader skipped plus records the target rejected.
    n_corrupt: int = 0
    #: Segments that ended mid-frame (a crash during an append).
    n_torn_segments: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing on disk was damaged."""
        return self.snapshot_outcome != "corrupt" and self.n_corrupt == 0


def recover(
    store: Store,
    target: RecoveryTarget,
    *,
    registry: MetricsRegistry | None = None,
) -> RecoveryReport:
    """Restore ``target`` from ``store``; never raises.

    Order matters: the snapshot is applied first (or skipped, on damage),
    then every surviving WAL record *after* the covered seq is replayed
    through ``target.apply_record`` in seq order.
    """
    report = RecoveryReport()
    registry = registry if registry is not None else getattr(target, "registry", None)
    payload = None
    try:
        payload, seq = store.read_snapshot()
    except (ValueError, KeyError, OSError, json.JSONDecodeError):
        logger.exception("unreadable store snapshot %s; replaying full log", store.snapshot_path)
        report.snapshot_outcome = "corrupt"
    if payload is not None:
        try:
            target.restore_dict(payload["controller"])
            report.snapshot_outcome = "ok"
            report.snapshot_seq = seq
        except Exception:
            logger.exception(
                "store snapshot %s did not restore; replaying full log",
                store.snapshot_path,
            )
            report.snapshot_outcome = "corrupt"
            report.snapshot_seq = 0
    # The parsed snapshot is the largest tree a restart holds: release it
    # before the replay rather than when this function returns.
    del payload

    tail = store.records_after(report.snapshot_seq)
    report.n_corrupt += tail.n_corrupt
    report.n_torn_segments = tail.n_torn_segments
    for record in tail.records:
        try:
            target.apply_record(record)
        except Exception:
            # A record the handlers cannot even parse: count and move on,
            # recovery salvages everything salvageable.
            logger.exception("skipping unreplayable WAL record seq=%s", record.get("seq"))
            report.n_corrupt += 1
            continue
        report.n_replayed += 1
        kind = str(record.get("kind", "?"))
        report.replayed_by_kind[kind] = report.replayed_by_kind.get(kind, 0) + 1

    if registry is not None:
        registry.counter(
            "via_store_recovery_replayed_records_total",
            "WAL records replayed during crash recovery.",
        ).inc(report.n_replayed)
        if report.n_corrupt:
            registry.counter(
                "via_store_read_errors_total",
                "Damaged WAL records skipped while reading, by reader.",
                ("reader",),
            ).labels(reader="recovery").inc(report.n_corrupt)
    logger.info(
        "store recovery from %s: snapshot=%s (seq %d), replayed %d records "
        "(%d damaged, %d torn segments)",
        store.root,
        report.snapshot_outcome,
        report.snapshot_seq,
        report.n_replayed,
        report.n_corrupt,
        report.n_torn_segments,
    )
    return report
