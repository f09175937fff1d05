"""compare.py verdicts at, inside and outside a bound."""

import json

import pytest

import compare


def test_lower_is_better_at_inside_and_outside_the_bound():
    base = [100.0, 100.0, 100.0]
    assert compare.verdict(base, [105.0] * 3, "lower", 0.10)["verdict"] == "same"
    # Exactly at the bound is still within it.
    assert compare.verdict(base, [110.0] * 3, "lower", 0.10)["verdict"] == "same"
    assert compare.verdict(base, [110.2] * 3, "lower", 0.10)["verdict"] == "worse"
    assert compare.verdict(base, [89.0] * 3, "lower", 0.10)["verdict"] == "better"


def test_higher_is_better_flips_the_direction():
    base = [1000.0] * 3
    assert compare.verdict(base, [880.0] * 3, "higher", 0.10)["verdict"] == "worse"
    assert compare.verdict(base, [900.0] * 3, "higher", 0.10)["verdict"] == "same"
    assert compare.verdict(base, [1150.0] * 3, "higher", 0.10)["verdict"] == "better"


def test_spread_wider_than_the_bound_is_unresolved_unless_disjoint():
    noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0]
    noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0]
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.05)["verdict"] == "unresolved"
    # Every run of B better than every run of A: the spread cannot hide it.
    far_b = [40.0, 50.0, 60.0, 45.0, 55.0]
    assert compare.verdict(noisy_a, far_b, "lower", 0.05)["verdict"] == "better"
    worse_b = [160.0, 200.0, 240.0, 180.0, 220.0]
    assert compare.verdict(noisy_a, worse_b, "lower", 0.05)["verdict"] == "worse"


def test_single_runs_and_missing_values():
    assert compare.verdict([2.0], [2.0], "lower", 0.05)["verdict"] == "same"
    assert compare.verdict([], [2.0], "lower", 0.05)["verdict"] == "unresolved"


def _results(value):
    return {"summary": {"hit": {"latency_ms": {"values": [value] * 3}}}}


BENCH = {
    "workloads": [{"name": "hit", "why": ""}],
    "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
}


def test_main_exits_nonzero_on_any_worse(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCH))
    a, b_same, b_worse = (tmp_path / n for n in ("a.json", "same.json", "worse.json"))
    a.write_text(json.dumps(_results(10.0)))
    b_same.write_text(json.dumps(_results(10.5)))
    b_worse.write_text(json.dumps(_results(12.0)))
    assert compare.main([str(a), str(b_same), "--benchmark", str(bench)]) == 0
    assert "same" in capsys.readouterr().out
    assert compare.main([str(a), str(b_worse), "--benchmark", str(bench)]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "hit" in out and "latency_ms" in out


def test_rows_carry_the_bound_from_the_benchmark_file():
    rows = compare.compare(_results(10.0), _results(10.0), BENCH)
    assert len(rows) == 1
    assert rows[0]["bound"] == pytest.approx(0.1)
    assert rows[0]["verdict"] == "same"
