"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation and both prints it and writes it under
``benchmarks/results/``, so the reproduced rows/series survive the run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def bench_workers(default: int = 1) -> int:
    """Worker count for parallel-capable benches.

    ``make bench WORKERS=N`` exports ``REPRO_BENCH_WORKERS``; benches
    that replay independent grids pass this to
    ``repro.simulation.run_grid`` / ``run_policies(workers=...)``.
    Results are bit-identical at any worker count, so timing is the only
    thing that changes.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if not raw:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def emit(name: str, text: str) -> None:
    """Print a reproduced table/figure and persist it to results/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def recording_enabled() -> bool:
    """Is this run recording perf baselines (``make bench-record``)?"""
    return os.environ.get("REPRO_BENCH_RECORD", "").strip() == "1"


def record_bench_json(area: str, benchmark_name: str, payload: dict) -> Path | None:
    """Commit a quality record: ``BENCH_<area>.json`` at the repo root.

    Only writes under ``REPRO_BENCH_RECORD=1``; returns the written path
    (or None when recording is off).  The file is one JSON object -- a
    ``benchmark`` id, a ``recorded_at`` date and the benchmark's own
    structured summary -- and one benchmark owns it.  Nothing gates on
    these files; ``perf/`` owns speed (``docs/performance.md``).
    """
    if not recording_enabled():
        return None
    path = REPO_ROOT / f"BENCH_{area}.json"
    entry = {
        "benchmark": benchmark_name,
        "recorded_at": time.strftime("%Y-%m-%d", time.gmtime()),
        **payload,
    }
    path.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")
    print(f"recorded quality baseline -> {path.name}")
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments replay tens of thousands of calls; statistical timing
    repetition is meaningless and expensive, so each bench is a single
    measured round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
