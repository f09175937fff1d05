"""BENCHMARK.json meets the contract, and ``--smoke`` emits exactly its names."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_file_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perf"]
    assert BENCH["command"] == ["python3", "perf/run.py"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = []
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert UNIT.match(m["unit"]), m
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(n) for n in names)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workload_reasons_match_the_harness():
    from workloads import REPLAY_SPECS, WIRE_SPECS, WORKLOADS

    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == WORKLOADS
    assert set(WORKLOADS) == set(WIRE_SPECS) | set(REPLAY_SPECS)


def test_every_probe_metric_is_declared():
    from probes import PROBE_METRICS

    declared = {m["name"] for m in BENCH["per_layer"]}
    assert set(PROBE_METRICS) <= declared


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    from workloads import wire_inputs

    a = wire_inputs("wire_overload", 5, 2.0)
    b = wire_inputs("wire_overload", 5, 2.0)
    c = wire_inputs("wire_overload", 6, 2.0)
    assert a.digest == b.digest and a.src == b.src and a.due == b.due
    assert a.digest != c.digest
    # The ground truth mirrors the policy's pair canonicalisation.
    k = len(a.menu)
    for idx in range(k):
        assert a.rtt_ms(0, 3, 9, idx) == a.rtt_ms(0, 9, 3, a.reverse_index[idx])


def test_exits_nonzero_without_a_program_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "wire_unloaded", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.slow
def test_smoke_emits_exactly_the_declared_names(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--seed", "3", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    results = json.loads((out / "results.json").read_text())
    workloads = [w["name"] for w in BENCH["workloads"]]
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    layers = [m["name"] for m in BENCH["per_layer"]]
    assert list(results["summary"]) == workloads
    assert list(results["per_layer"]) == workloads
    for w in workloads:
        assert list(results["summary"][w]) == e2e
        assert all(len(results["summary"][w][m]["values"]) == 1 for m in e2e)
        assert list(results["per_layer"][w]) == layers
        assert (out / f"trace_{w}.jsonl").is_file()
    for run in results["runs"]:
        line = run["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == (layers if run["trace"] else e2e)
    for m in e2e:
        assert f"\n{m} " in proc.stdout
    for m in layers:
        assert f"\n{m} " in proc.stdout
    assert "loop.residual_us" in proc.stdout and "Per-layer budget, wire_unloaded" in proc.stdout
