"""Build the pinned store-snapshot fixture from a seed.

The snapshot format is pinned by a committed file, not by a description:
``tests/test_snapshot_format.py`` rebuilds the same controller state with
:func:`write_snapshot` and requires ``Store.snapshot`` to write the
committed bytes exactly, and requires the committed file to recover to a
pinned ``controller_fingerprint``.  The state is a never-started
``ViaController`` fed a seeded stream of hellos, requests and
measurements through ``apply_record`` (each also logged into the store,
as a live controller would), over two 24 h windows so that the history,
the per-pair bandits and the RNG position all appear in the file.

Regenerate the fixture only when the snapshot format changes on purpose:

    PYTHONPATH=src python scripts/snapshot_fixture.py

Uses the standard library and ``repro`` alone.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "snapshot-seed7.json"

SEED = 7
N_CALLS = 300
#: Client ids the calls are drawn between: at most 15 unordered pairs.
N_CLIENTS = 6
#: The calls' times spread evenly over this span: two refresh windows.
SPAN_HOURS = 40.0


def _menu() -> list[dict]:
    """A 10-option wire menu: direct, three bounces, six transits."""
    from repro.deployment.protocol import encode_option
    from repro.netmodel.options import DIRECT, RelayOption

    relays = range(3)
    options = [DIRECT, *(RelayOption.bounce(r) for r in relays)]
    options += [RelayOption.transit(a, b) for a in relays for b in relays if a != b]
    return [encode_option(option) for option in options]


def build_controller(
    seed: int = SEED, n_calls: int = N_CALLS, store=None, *, n_clients: int = N_CLIENTS
):
    """A never-started ``ViaController`` fed ``n_calls`` seeded calls
    between ``n_clients`` client ids.

    Every record is applied with ``apply_record`` and, when ``store`` is
    given, logged into it first."""
    from repro.core.policy import ViaConfig
    from repro.deployment.controller import ViaController

    rng = random.Random(seed)
    menu = _menu()
    controller = ViaController(ViaConfig(seed=seed))

    def feed(record: dict) -> None:
        if store is not None:
            fields = {k: v for k, v in record.items() if k != "kind"}
            getattr(store, f"log_{record['kind']}")(**fields)
        controller.apply_record(record)

    for client in range(1, n_clients + 1):
        feed({"kind": "hello", "client_id": client, "site": f"site-{client % 3}"})
    for i in range(n_calls):
        src, dst = rng.sample(range(1, n_clients + 1), 2)
        t_hours = SPAN_HOURS * i / n_calls
        feed({"kind": "request", "src_id": src, "dst_id": dst, "t_hours": t_hours,
              "options": menu})
        feed({"kind": "measurement", "src_id": src, "dst_id": dst, "t_hours": t_hours,
              "option": rng.choice(menu), "rtt_ms": rng.uniform(80.0, 400.0),
              "loss_rate": rng.uniform(0.0, 0.05), "jitter_ms": rng.uniform(1.0, 30.0)})
    return controller


def write_snapshot(directory: str | Path, seed: int = SEED, n_calls: int = N_CALLS) -> Path:
    """Build the state into a fresh store under ``directory`` and snapshot
    it; returns the snapshot file's path."""
    from repro.store import Store, StoreConfig

    store = Store(directory, StoreConfig(fsync="off"))
    try:
        return store.snapshot(build_controller(seed, n_calls, store))
    finally:
        store.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="snapshot-fixture-") as tmp:
        written = write_snapshot(Path(tmp) / "store")
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(written, FIXTURE)
    print(f"wrote {FIXTURE.relative_to(REPO_ROOT)} ({FIXTURE.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
