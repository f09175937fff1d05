"""Multipath relaying under relay outages: path pairs vs single-path VIA.

The multipath literature (see ``PAPERS.md``) argues that under volatile
loss a call is better served by *two* concurrent overlay paths -- either
duplicating the stream (FEC-style redundancy: the receiver keeps the
best copy) or splitting it across both.  This bench builds an
outage-heavy world (a rotating relay outage for a third of every day)
and compares, through one ``run_grid`` over registry-name specs:

* ``via``             -- the paper's single-path prediction + bandit,
* ``multipath-ucb``   -- UCB1 over duplicated path pairs,
* ``multipath-random``-- uniform-random path pairs (exploration floor),
* ``default``         -- the BGP default path.

Scored on mean RTT of the delivered stream, the outage-window
degradation ratio, and dead/degraded assignment counts.  Duplication
spends 2x relay bandwidth -- the honest cost of its outage immunity
(``docs/policies.md`` discusses the trade-off).  Recorded to
``BENCH_multipath.json`` under ``REPRO_BENCH_RECORD=1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _util import emit, once, record_bench_json
from repro.analysis import format_table
from repro.netmodel import TopologyConfig, WorldConfig, build_world
from repro.netmodel.world import RelayOutage
from repro.simulation import PolicySpec, ReplayTask, run_grid
from repro.workload import WorkloadConfig, generate_trace

METRIC = "rtt_ms"
DAYS = 10
CALLS = 12_000
PAIRS = 90
N_RELAYS = 6
WORLD_SEED = 2016
TRACE_SEED = 424
REPLAY_SEED = 99
#: Hours of each day the rotating outage is active (8 h = a third).
OUTAGE_START_H = 8.0
OUTAGE_END_H = 16.0


def outage_heavy_world():
    """A seeded world where some relay is down a third of every day."""
    world = build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=12, n_relays=N_RELAYS, seed=5),
            n_days=DAYS,
            seed=WORLD_SEED,
        )
    )
    for day in range(DAYS):
        world.add_outage(
            RelayOutage(
                relay_id=day % N_RELAYS,
                start_hours=day * 24.0 + OUTAGE_START_H,
                end_hours=day * 24.0 + OUTAGE_END_H,
            )
        )
    return world


@pytest.mark.benchmark(group="ext-multipath")
def test_ext_multipath_outage(benchmark):
    def experiment():
        world = outage_heavy_world()
        trace = generate_trace(
            world.topology,
            WorkloadConfig(n_calls=CALLS, n_pairs=PAIRS, seed=TRACE_SEED),
            n_days=DAYS,
        )
        specs = {
            "default": PolicySpec.default(),
            "via": PolicySpec.via(METRIC, seed=42),
            "multipath-ucb": PolicySpec.multipath(METRIC, seed=42),
            "multipath-random": PolicySpec(kind="multipath-random", seed=42),
        }
        tasks = [
            ReplayTask(policy=spec, seed=REPLAY_SEED, label=name)
            for name, spec in specs.items()
        ]
        results = {
            r.task.label: r.result
            for r in run_grid(tasks, world=world, trace=trace)
        }
        table = {}
        for name, result in results.items():
            degradation = result.outage_degradation(METRIC) or {}
            table[name] = {
                "mean_rtt_ms": float(
                    np.mean([o.metrics.rtt_ms for o in result.outcomes])
                ),
                "rtt_during_outage": degradation.get("during"),
                "rtt_outside_outage": degradation.get("outside"),
                "outage_ratio": degradation.get("ratio"),
                "n_dead": result.n_dead_assignments,
                "n_degraded": result.n_degraded_assignments,
            }
        return table

    table = once(benchmark, experiment)
    # The headline claim this bench exists to pin: on an outage-heavy
    # world the duplicated-path bandit delivers a better stream than
    # single-path VIA, both overall and inside outage windows, and never
    # commits a call to an all-dead path set.
    assert table["multipath-ucb"]["mean_rtt_ms"] < table["via"]["mean_rtt_ms"], (
        "bandit-over-paths should beat single-path top-k on mean RTT here"
    )
    assert (
        table["multipath-ucb"]["rtt_during_outage"]
        < table["via"]["rtt_during_outage"]
    ), "duplication should beat single-path inside outage windows"
    rows = [
        [
            name,
            f"{d['mean_rtt_ms']:.1f}",
            f"{d['rtt_during_outage']:.1f}" if d["rtt_during_outage"] else "-",
            f"{d['outage_ratio']:.2f}" if d["outage_ratio"] else "-",
            str(d["n_dead"]),
            str(d["n_degraded"]),
        ]
        for name, d in table.items()
    ]
    emit(
        "ext_multipath",
        format_table(
            ["strategy", "mean RTT", "RTT in outage", "outage ratio",
             "dead", "degraded"],
            rows,
            title=f"Multipath vs single-path under rotating outages "
                  f"({CALLS:,} calls, {N_RELAYS} relays, 8h/day down)",
        ),
    )
    payload = {
        "workload": {
            "n_calls": CALLS,
            "n_pairs": PAIRS,
            "n_relays": N_RELAYS,
            "n_days": DAYS,
            "world_seed": WORLD_SEED,
            "trace_seed": TRACE_SEED,
            "replay_seed": REPLAY_SEED,
            "outage_hours_per_day": OUTAGE_END_H - OUTAGE_START_H,
        },
        "policies": table,
        "bandit_beats_single_path": bool(
            table["multipath-ucb"]["mean_rtt_ms"] < table["via"]["mean_rtt_ms"]
        ),
    }
    record_bench_json(
        "multipath", "bench_ext_multipath::test_ext_multipath_outage", payload
    )
