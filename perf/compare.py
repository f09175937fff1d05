#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py`` against the benchmark's bounds.

    python3 perf/compare.py A.json B.json

``A`` is the parent (baseline), ``B`` the change.  Bounds, units and
directions come from ``BENCHMARK.json``; a bound is the share of A's
median by which a metric may get worse.  One row per (workload,
end-to-end metric), each with a verdict:

* ``worse``      B's median is worse than A's by more than the bound
                 (and the spread does not hide it, or every run of B is
                 worse than every run of A);
* ``better``     B's median is better by more than the bound -- or, when
                 the spread is wider than the bound, every run of B reads
                 better than every run of A;
* ``same``       within the bound, and the spread is within the bound;
* ``unresolved`` the run-to-run spread (the wider inter-quartile range of
                 the two sides, as a share of A's median) exceeds the
                 bound, so neither "same" nor "worse" can be said.

Exit code 1 when any row is ``worse``, else 0.  Used for the A/A check
(two result sets of one commit must show no ``worse``) and for every
later before/after.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import quartiles  # noqa: E402

__all__ = ["verdict", "compare", "main"]

#: Slack for float round-off when a difference sits exactly on its bound.
_EPS = 1e-12


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Judge one metric: ``a`` and ``b`` are the runs of each side."""
    if not a or not b:
        return {"verdict": "unresolved", "reason": "no values"}
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(a_med) if a_med else 1.0
    # Positive = B is worse than A, as a share of A's median.
    worse_by = sign * (b_med - a_med) / scale
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / scale
    if better == "lower":
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    if spread > bound + _EPS:
        if all_better:
            outcome = "better"
        elif all_worse and worse_by > bound + _EPS:
            outcome = "worse"
        else:
            outcome = "unresolved"
    elif worse_by > bound + _EPS:
        outcome = "worse"
    elif -worse_by > bound + _EPS:
        outcome = "better"
    else:
        outcome = "same"
    return {
        "verdict": outcome,
        "a_median": a_med,
        "b_median": b_med,
        "worse_by": worse_by,
        "spread": spread,
        "bound": bound,
    }


def compare(a: dict, b: dict, bench: dict) -> list[dict]:
    """Rows for every (workload, end-to-end metric) both files cover."""
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a_vals = a.get("summary", {}).get(workload, {}).get(name, {}).get("values", [])
            b_vals = b.get("summary", {}).get(workload, {}).get(name, {}).get("values", [])
            if not a_vals and not b_vals:
                continue
            row = verdict(a_vals, b_vals, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':15s} {'metric':16s} {'unit':5s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'spread':>8s} {'bound':>7s}  verdict"
    ]
    for r in rows:
        if "a_median" not in r:
            lines.append(f"{r['workload']:15s} {r['metric']:16s} {r['unit']:5s} {'-':>12s} {'-':>12s} "
                         f"{'-':>9s} {'-':>8s} {'-':>7s}  {r['verdict']}")
            continue
        lines.append(
            f"{r['workload']:15s} {r['metric']:16s} {r['unit']:5s} {r['a_median']:12.6g} "
            f"{r['b_median']:12.6g} {100 * r['worse_by']:+8.2f}% {100 * r['spread']:7.2f}% "
            f"{100 * r['bound']:6.1f}%  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results.json of the parent")
    parser.add_argument("b", help="results.json of the change")
    parser.add_argument(
        "--benchmark",
        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"),
    )
    args = parser.parse_args(argv)
    bench = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    a = json.loads(Path(args.a).read_text(encoding="utf-8"))
    b = json.loads(Path(args.b).read_text(encoding="utf-8"))
    rows = compare(a, b, bench)
    print(format_rows(rows))
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("\n" + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
