"""Span self-time arithmetic with nested and overlapping children."""

import json

import pytest

from tracing import Tracer, layer_budget, self_times, write_jsonl


def _span(i, name, start, end, parent=None, trace_id=1):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "trace_id": trace_id}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "call", 0.0, 10.0),
        _span(1, "policy.assign", 1.0, 4.0, parent=0),
        _span(2, "policy.predict", 2.0, 3.0, parent=1),  # grandchild of the root
        _span(3, "store.log", 6.0, 8.0, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    # Self times partition the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        _span(0, "call", 0.0, 10.0),
        _span(1, "a.x", 1.0, 5.0, parent=0),
        _span(2, "a.y", 3.0, 7.0, parent=0),  # overlaps a.x on [3, 5]
        _span(3, "a.z", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    own = self_times(spans)
    # Covered: [1, 7] and [9, 10] = 7 of the parent's 10.
    assert own[0] == pytest.approx(3.0)


def test_tracer_records_parent_and_trace_id():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.trace_id = 42
    with tracer.span("call"):
        with tracer.span("protocol.encode"):
            pass
        with tracer.span("policy.assign"):
            pass
    spans = tracer.spans()
    assert [s["name"] for s in spans] == ["call", "protocol.encode", "policy.assign"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert {s["trace_id"] for s in spans} == {42}
    assert all(s["end"] > s["start"] for s in spans)
    budget = layer_budget(spans, n_units=1)
    assert set(budget["by_layer"]) == {"call", "protocol", "policy"}
    total = sum(budget["by_layer"].values())
    assert total == pytest.approx(1e6 * (spans[0]["end"] - spans[0]["start"]))


def test_trace_file_has_the_five_fields_on_every_span(tmp_path):
    tracer = Tracer()
    tracer.trace_id = 7
    with tracer.span("call"):
        with tracer.span("policy.assign"):
            pass
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, tracer.spans())
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert {"name", "start", "end", "parent", "trace_id"} <= set(row)
    assert rows[0]["start"] == 0.0
