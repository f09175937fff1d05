"""Build the pinned store-directory fixture from a seed.

The on-disk store -- a snapshot plus the WAL tail after it -- is pinned by
a committed directory, not by a description: ``tests/test_store_fixture.py``
requires this script to write the committed bytes exactly, and requires the
committed directory to recover to a pinned ``controller_fingerprint`` with
one torn segment and no damaged record.

What the directory holds, in order of writing:

* ``snapshot.json``: a never-started ``ViaController`` fed
  :data:`N_SNAPSHOT_CALLS` seeded calls between :data:`N_CLIENTS` clients
  through ``apply_record`` (each record logged first, as a live controller
  would), then ``Store.snapshot`` (which deletes the log it covers);
* ``wal/``: :data:`N_TAIL_CALLS` more calls, with small segments
  (:data:`MAX_SEGMENT_BYTES`), so several sealed segments precede the
  active one.  Records come in both shapes the store has held: v1-era
  values (``Store.log_hello`` -- no ``protocol`` -- ``log_request``,
  ``log_measurement``) and v2 wire lines (a hello with ``"protocol":2``,
  requests and measurements with a ``corr_id``);
* the active segment ends in a torn frame: the last record's frame is cut
  in half, as a crash during its append leaves it.

Regenerate the fixture only when the store format changes on purpose:

    PYTHONPATH=src python scripts/store_fixture.py

Uses the standard library and ``repro`` alone.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):  # run as a script: make ``scripts`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from scripts.snapshot_fixture import SPAN_HOURS, _menu

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "store-seed7"

SEED = 7
N_CLIENTS = 6
#: Calls the snapshot covers, and calls in the WAL tail after it.
N_SNAPSHOT_CALLS = 120
N_TAIL_CALLS = 60
#: Small enough that the tail spans several sealed segments.
MAX_SEGMENT_BYTES = 16 * 1024


def _calls(rng: random.Random, menu: list[dict], n_calls: int):
    """Each call's (request fields, measurement fields), seeded."""
    for i in range(n_calls):
        src, dst = rng.sample(range(1, N_CLIENTS + 1), 2)
        t_hours = SPAN_HOURS * i / n_calls
        yield (
            {"src_id": src, "dst_id": dst, "t_hours": t_hours, "options": menu},
            {"src_id": src, "dst_id": dst, "t_hours": t_hours, "option": rng.choice(menu),
             "rtt_ms": rng.uniform(80.0, 400.0), "loss_rate": rng.uniform(0.0, 0.05),
             "jitter_ms": rng.uniform(1.0, 30.0)},
        )


def _log(store, controller, kind: str, fields: dict, wire: dict | None = None) -> None:
    """Log one record, then apply it as recovery would: v1-era values
    (``Store.log_<kind>``) when ``wire`` is None, else the v2 wire line of
    the message with ``wire`` (its ``protocol`` or ``corr_id``) added."""
    from repro.deployment.protocol import (
        HelloMessage,
        MeasurementMessage,
        RequestMessage,
        encode_message,
    )

    if wire is None:
        getattr(store, f"log_{kind}")(**fields)
        record = dict(fields)
    else:
        message = {"hello": HelloMessage, "request": RequestMessage,
                   "measurement": MeasurementMessage}[kind]
        line = encode_message(message(**fields, **wire))
        store.log_line(kind, line)
        record = json.loads(line)
    controller.apply_record({"kind": kind, **record})


def write_store(root: str | Path, seed: int = SEED) -> Path:
    """Write the fixture store under ``root`` (a fresh directory); returns
    ``root``."""
    from repro.core.policy import ViaConfig
    from repro.deployment.controller import ViaController
    from repro.store import Store, StoreConfig

    root = Path(root)
    rng = random.Random(seed)
    calls = _calls(rng, _menu(), N_SNAPSHOT_CALLS + N_TAIL_CALLS)
    controller = ViaController(ViaConfig(seed=seed))
    store = Store(root, StoreConfig(fsync="off", max_segment_bytes=MAX_SEGMENT_BYTES))

    def log(kind: str, fields: dict, wire: dict | None = None) -> None:
        _log(store, controller, kind, fields, wire)

    def hello(client: int, wire: dict | None = None) -> None:
        log("hello", {"client_id": client, "site": f"site-{client % 3}"}, wire)

    def call(corr_id: int | None = None) -> None:
        request, measurement = next(calls)
        log("request", request, None if corr_id is None else {"corr_id": corr_id})
        log("measurement", measurement, None if corr_id is None else {"corr_id": corr_id + 1})

    half = N_TAIL_CALLS // 2
    try:
        # Covered by the snapshot: v1-era records only.
        for client in range(1, N_CLIENTS + 1):
            hello(client)
        for _ in range(N_SNAPSHOT_CALLS):
            call()
        store.snapshot(controller)
        # The tail: half the clients reconnect with v1-era hellos and calls,
        # the other half upgrade to v2 wire lines.
        for client in range(1, N_CLIENTS // 2 + 1):
            hello(client)
        for _ in range(half):
            call()
        for client in range(N_CLIENTS // 2 + 1, N_CLIENTS + 1):
            hello(client, {"protocol": 2})
        for i in range(N_TAIL_CALLS - half - 1):
            call(corr_id=2 * i + 1)
        request, measurement = next(calls)
        log("request", request, {"corr_id": 1001})
        active = store.wal.active_path
        before = active.stat().st_size
        log("measurement", measurement, {"corr_id": 1002})
        assert store.wal.active_path == active, "the last record rotated the segment"
        after = active.stat().st_size
    finally:
        store.close()
    # The last record torn mid-frame, as a crash during its append leaves it.
    with open(active, "r+b") as fh:
        fh.truncate(before + (after - before) // 2)
    return root


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="store-fixture-") as tmp:
        written = write_store(Path(tmp) / "store")
        shutil.rmtree(FIXTURE, ignore_errors=True)
        shutil.copytree(written, FIXTURE)
    files = sorted(p for p in FIXTURE.rglob("*") if p.is_file())
    size = sum(p.stat().st_size for p in files)
    print(f"wrote {FIXTURE.relative_to(REPO_ROOT)}/ ({len(files)} files, {size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
