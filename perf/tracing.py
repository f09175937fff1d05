"""Harness-side span recorder and self-time arithmetic.

Spans are opened by ``perf/`` code around each call into a public
function of the program (spans *inside* ``src/`` are a later issue).
Every span is ``{id, name, start, end, parent, trace_id}``; spans of one
request share its ``trace_id`` (the correlation id).  They stay in memory
and are written as JSON lines when the run ends.

A span's **self time** is its duration minus the part of that interval
its direct children cover (overlapping children are counted once,
children are clipped to the parent).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

__all__ = ["Tracer", "self_times", "layer_budget", "write_jsonl", "span_cost_us"]


class _Span:
    __slots__ = ("_tracer", "_row")

    def __init__(self, tracer: "Tracer", row: list) -> None:
        self._tracer = tracer
        self._row = row

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._stack.append(self._row[0])
        self._row[2] = tracer._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        self._row[3] = tracer._clock()
        tracer._stack.pop()


class Tracer:
    """Collects spans as rows ``[id, name, start, end, parent, trace_id]``."""

    def __init__(self, clock=perf_counter) -> None:
        self.rows: list[list] = []
        self.trace_id: int | None = None
        self._stack: list[int] = []
        self._clock = clock

    def span(self, name: str) -> _Span:
        stack = self._stack
        row = [len(self.rows), name, 0.0, 0.0, stack[-1] if stack else None, self.trace_id]
        self.rows.append(row)
        return _Span(self, row)

    def spans(self) -> list[dict]:
        return [
            {"id": r[0], "name": r[1], "start": r[2], "end": r[3], "parent": r[4], "trace_id": r[5]}
            for r in self.rows
        ]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span, by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append((s["start"], s["end"]))
    out: dict[int, float] = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(s["id"], ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[s["id"]] = (end - start) - covered
    return out


def layer_budget(spans: list[dict], n_units: int) -> dict[str, dict[str, float]]:
    """Mean self time per unit of work (a call), in microseconds.

    Returns ``{"by_name": {span name: us}, "by_layer": {layer: us}}`` where
    a span's layer is the part of its name before the first dot.
    """
    own = self_times(spans)
    by_name: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    scale = 1e6 / max(1, n_units)
    for s in spans:
        t = own[s["id"]] * scale
        name = s["name"]
        by_name[name] = by_name.get(name, 0.0) + t
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + t
    return {"by_name": by_name, "by_layer": by_layer}


def write_jsonl(path: Path, spans: list[dict]) -> None:
    """One span per line; times are seconds from the first span's start."""
    origin = spans[0]["start"] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            row = dict(s)
            row["start"] = round(s["start"] - origin, 9)
            row["end"] = round(s["end"] - origin, 9)
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def span_cost_us(n: int = 20000) -> float:
    """Wall cost of opening and closing one empty span."""
    tracer = Tracer()
    t0 = perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return 1e6 * (perf_counter() - t0) / n
