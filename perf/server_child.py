"""The controller under test, as one child process of the harness.

Started by ``perf/wire.py`` with a JSON config on argv.  Builds a
``ViaController`` from public constructors only, starts it, prints one
``ready`` line with the bound port, then answers one-word commands on
stdin with one JSON line each on stdout:

* ``rusage``       user+sys CPU seconds and peak RSS of this process
* ``calibrate``    speed of the calibration kernel on this process's core
* ``snapshot``     ``controller.save_store_snapshot()`` (folds the WAL down)
* ``stop``         clean ``controller.stop()``, final report, exit 0
* ``crash``        final report with the SHA-256 of ``snapshot_dict()``, then
                   ``os._exit`` with no shutdown hooks (the WAL tail stays
                   for the restart to replay)

EOF on stdin means the harness is gone: the child stops itself, so a
killed benchmark leaves no controller behind.  The server's GC, worker
count and batch size are left exactly as shipped.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import sys
import time


def _rusage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _fingerprint(controller) -> str:
    blob = json.dumps(controller.snapshot_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _replayed(controller) -> float:
    """WAL records the start-up recovery replayed, from the public scrape."""
    for line in controller.metrics_text().splitlines():
        if line.startswith("via_store_recovery_replayed_records_total "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


async def _serve(cfg: dict) -> None:
    from calibrate import kernel_speed
    from repro.core import ViaConfig
    from repro.deployment import AdmissionConfig, ViaController

    store = None
    if cfg.get("store_dir"):
        from repro.store import Store, StoreConfig

        store = Store(cfg["store_dir"], StoreConfig(fsync=cfg.get("fsync", "batch")))
    admission = AdmissionConfig(**cfg["admission"]) if cfg.get("admission") else None
    controller = ViaController(
        ViaConfig(seed=int(cfg["policy_seed"])), admission=admission, store=store
    )
    t0 = time.perf_counter()
    await controller.start()  # with a store this is recover(): snapshot + WAL replay
    start_s = time.perf_counter() - t0
    ready = {
        "ready": True,
        "port": controller.port,
        "start_s": start_s,
        "n_replayed": _replayed(controller),
    }
    if cfg.get("fingerprint_on_start"):
        ready["fingerprint"] = _fingerprint(controller)
    _emit(ready)

    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    while True:
        line = await commands.readline()
        command = line.decode("ascii", "replace").strip()
        if not line or command == "stop":
            await controller.stop()
            if line:
                _emit({"stopped": True, **_rusage()})
            return
        if command == "rusage":
            _emit(_rusage())
        elif command == "calibrate":
            _emit({"speed": kernel_speed()})
        elif command == "snapshot":
            t0 = time.perf_counter()
            controller.save_store_snapshot()
            _emit({"snapshot_s": time.perf_counter() - t0})
        elif command == "crash":
            _emit({"crashed": True, "fingerprint": _fingerprint(controller), **_rusage()})
            os._exit(0)
        else:
            _emit({"error": f"unknown command {command!r}"})


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, cfg["src"])
    if cfg.get("cpu") is not None:
        os.sched_setaffinity(0, {int(cfg["cpu"])})
    asyncio.run(_serve(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
