"""Chaos soak harness tests (:mod:`repro.soak`).

Everything here runs on sharply reduced budgets -- enough ticks for each
lifecycle leg and the watchdog window to fire at least once, small
enough for the tier-1 loop.  The real endurance run is ``repro soak``
(smoke in CI, ``--budget full`` for hours).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.soak import (
    DEFAULT_INVARIANTS,
    LeakyPolicy,
    SoakBudget,
    SoakReport,
    TrendWatchdog,
    derive_fault_plan,
    run_soak,
)
from repro.soak.watchdog import InvariantSpec, sample_gc_objects

pytestmark = pytest.mark.soak


def mini_budget(seed: int = 3, **overrides) -> SoakBudget:
    """A seconds-scale budget where every lifecycle leg still fires."""
    base = dict(
        ticks=120,
        calls_per_tick=4,
        snapshot_every_ticks=20,
        compact_every_ticks=30,
        kill_every_ticks=40,
        sample_every_ticks=2,
        window_samples=12,
        seed=seed,
    )
    base.update(overrides)
    return SoakBudget(**base)


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------


def test_budget_presets_validate():
    for preset in (SoakBudget.smoke(seed=1), SoakBudget.full(seed=1)):
        assert preset.ticks >= 1
        assert preset.horizon_hours > 0
    assert SoakBudget.full().ticks > SoakBudget.smoke().ticks


@pytest.mark.parametrize(
    "overrides",
    [
        {"ticks": 0},
        {"n_clients": 1},
        {"window_samples": 3},
        {"hours_per_tick": 0.0},
        {"raced_kill_every": 0},
        {"n_shards": -1},
        {"time_budget_s": 0.0},
    ],
)
def test_budget_rejects_bad_knobs(overrides):
    with pytest.raises(ValueError):
        mini_budget(**overrides)


def test_fault_plan_is_pure_function_of_seed():
    a = derive_fault_plan(9, 100.0)
    b = derive_fault_plan(9, 100.0)
    assert a == b
    assert a != derive_fault_plan(10, 100.0)
    assert a.relay_outages, "a 100h horizon must schedule outages"
    assert all(o.end_hours <= 100.0 + 6.0 for o in a.relay_outages)


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------


def test_watchdog_needs_minimum_samples():
    dog = TrendWatchdog(specs=DEFAULT_INVARIANTS, window_samples=8)
    for value in (100.0, 200.0, 300.0):
        dog.record("rss_kb", value)
    (verdict,) = [v for v in dog.evaluate() if v["invariant"] == "rss_kb"]
    assert verdict["enough_data"] is False
    assert verdict["violated"] is False


def test_watchdog_flags_monotonic_growth_but_not_noise():
    spec = InvariantSpec(
        name="x", help="", max_slope_per_sample=10.0, min_growth=100.0
    )
    grower = TrendWatchdog(specs=(spec,), window_samples=10)
    noisy = TrendWatchdog(specs=(spec,), window_samples=10)
    for i in range(10):
        grower.record("x", 1000.0 + 50.0 * i)  # slope 50, growth 450
        noisy.record("x", 1000.0 + (i % 2) * 120.0)  # oscillates, no trend
    assert grower.evaluate()[0]["violated"] is True
    assert noisy.evaluate()[0]["violated"] is False


def test_watchdog_absolute_floor_suppresses_tiny_slopes():
    # Steady +2/sample violates the slope knob but never amounts to
    # anything: the absolute growth floor keeps it quiet.
    spec = InvariantSpec(
        name="x", help="", max_slope_per_sample=1.0, min_growth=1000.0
    )
    dog = TrendWatchdog(specs=(spec,), window_samples=10)
    for i in range(10):
        dog.record("x", 100.0 + 2.0 * i)
    assert dog.evaluate()[0]["violated"] is False


def test_watchdog_ignores_unavailable_sampler():
    dog = TrendWatchdog(specs=DEFAULT_INVARIANTS, window_samples=8)
    for _ in range(8):
        dog.record("open_fds", -1.0)  # sampler unavailable on this platform
    (verdict,) = [v for v in dog.evaluate() if v["invariant"] == "open_fds"]
    assert verdict["enough_data"] is False


def test_gc_objects_counts_a_leak_the_heap_froze():
    # A serving controller freezes the heap (gc.freeze), and
    # gc.get_objects() skips frozen objects: a leak made before a restart
    # must not vanish from the line.
    import gc

    before = sample_gc_objects()
    hoard = [[i] for i in range(20_000)]
    gc.freeze()
    try:
        frozen = sample_gc_objects()
    finally:
        gc.unfreeze()
    assert frozen - before >= 20_000
    del hoard


# ----------------------------------------------------------------------
# End-to-end soaks
# ----------------------------------------------------------------------


def test_single_controller_soak_passes(tmp_path):
    report = run_soak(
        mini_budget(), workdir=tmp_path / "w", artifacts_dir=tmp_path / "art"
    )
    assert report.ok, report.summary()
    assert report.n_ticks == 120
    assert report.n_snapshots == 6
    assert report.n_restores == 3
    assert report.n_raced_restores >= 1, "the raced-restore leg must run"
    assert report.n_scrapes == 120
    assert report.n_samples == 60
    assert report.workload_fingerprint
    assert not report.truncated
    assert not (tmp_path / "art").exists(), "no artifact on a green run"


def test_soak_is_deterministic_given_seed(tmp_path):
    a = run_soak(mini_budget(seed=11), artifacts_dir=tmp_path / "a")
    b = run_soak(mini_budget(seed=11), artifacts_dir=tmp_path / "b")
    assert a.ok and b.ok
    assert a.workload_fingerprint == b.workload_fingerprint
    assert (a.n_calls, a.n_measurements, a.n_blackholed) == (
        b.n_calls,
        b.n_measurements,
        b.n_blackholed,
    )
    c = run_soak(mini_budget(seed=12), artifacts_dir=tmp_path / "c")
    assert c.workload_fingerprint != a.workload_fingerprint


def test_sharded_soak_restarts_shards(tmp_path):
    budget = mini_budget(
        ticks=60,
        calls_per_tick=3,
        n_shards=2,
        kill_every_ticks=0,
        shard_kill_every_ticks=12,
        gossip_every_ticks=6,
        window_samples=10,
    )
    report = run_soak(
        budget, workdir=tmp_path / "w", artifacts_dir=tmp_path / "art"
    )
    assert report.ok, report.summary()
    assert report.n_shard_restarts == 5
    assert report.n_gossip_rounds == 10
    assert report.n_restores == 0, "single-controller kills are off"


@pytest.mark.parametrize(
    ("plant", "invariant"),
    [("objects", "gc_objects"), ("fds", "open_fds"), ("series", "metric_series")],
)
def test_planted_leak_trips_matching_invariant(tmp_path, plant, invariant):
    report = run_soak(
        mini_budget(), artifacts_dir=tmp_path / "art", plant=plant
    )
    assert not report.ok, f"planted {plant} leak must fail the soak"
    assert report.stopped_early, "a tripped watchdog must stop the run"
    named = {f["invariant"] for f in report.failures}
    assert invariant in named
    # The artifact names the offending invariant, reproducibly.
    assert report.artifact_path is not None and report.artifact_path.exists()
    payload = json.loads(report.artifact_path.read_text())
    assert invariant in {f["invariant"] for f in payload["failures"]}
    assert payload["seed"] == report.seed


def test_planted_leak_leaves_no_residue(tmp_path):
    run_soak(mini_budget(), artifacts_dir=tmp_path / "art", plant="objects")
    assert LeakyPolicy.hoard == [], "the hoard must be torn down after a run"


def test_unknown_plant_rejected():
    with pytest.raises(ValueError, match="unknown plant"):
        run_soak(mini_budget(), plant="sockets")


def test_time_budget_truncates(tmp_path):
    budget = mini_budget(ticks=100_000, time_budget_s=0.5, kill_every_ticks=0)
    report = run_soak(budget, artifacts_dir=tmp_path / "art")
    assert report.truncated
    assert report.n_ticks < budget.ticks
    assert report.ok, "truncation is reported, never a failure"


def test_soak_metrics_land_on_registry(tmp_path):
    registry = MetricsRegistry()
    run_soak(mini_budget(), registry=registry, artifacts_dir=tmp_path / "art")
    text = registry.render_text()
    assert "via_soak_ticks_total 120" in text
    assert 'via_soak_restores_total{kind="clean"}' in text
    assert 'via_soak_restores_total{kind="raced"}' in text
    assert "via_soak_last_duration_seconds" in text


# ----------------------------------------------------------------------
# Report round-trip and CLI
# ----------------------------------------------------------------------


def test_report_round_trips_through_dict(tmp_path):
    report = run_soak(mini_budget(), artifacts_dir=tmp_path / "art")
    clone = SoakReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert clone.to_dict() == report.to_dict()
    assert clone.budget == report.budget
    assert clone.ok is report.ok


def test_report_summary_names_failures():
    report = SoakReport(seed=5, budget=mini_budget(seed=5))
    report.failures.append(
        {"leg": "watchdog", "invariant": "rss_kb", "tick": 7, "violated": True}
    )
    text = report.summary()
    assert "FAIL" in text and "rss_kb" in text
    assert "repro soak --seed 5" in text


def test_cli_soak_exit_codes(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    args = ["soak", "--ticks", "120", "--artifacts-dir", str(tmp_path / "art")]
    assert main(args + ["--out", str(tmp_path / "r.json")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "120/360 ticks" not in out
    saved = json.loads((tmp_path / "r.json").read_text())
    assert saved["n_ticks"] == 120

    assert main(args + ["--plant-leak", "fds"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "open_fds" in out


def test_one_shard_budget_soaks_a_single_controller(tmp_path):
    budget = mini_budget(ticks=40, n_shards=1, kill_every_ticks=10)
    report = run_soak(budget, artifacts_dir=tmp_path / "art")
    assert report.ok, report.summary()
    assert report.n_shard_restarts == 0
    assert report.n_restores == 4
