"""Parallel replay engine: speedup and bit-identity of the fan-out path.

The §5 evaluation grid -- (policy x seed) replays sharing one world -- is
embarrassingly parallel.  This bench runs the same grid twice through
``repro.simulation.run_grid``, once with ``workers=1`` (the serial
baseline) and once with ``workers=4``, and checks the engine's two
contracts:

* **bit-identity**: every task's outcome sequence (options and metric
  triples) and the merged per-policy ``RunningStat``\\ s are exactly equal
  across worker counts;
* **speedup**: on a machine with >= 4 cores the parallel run must be at
  least 3x faster wall-clock.  On smaller machines (CI containers are
  often 1-2 cores) the speedup line is reported but not asserted --
  there is no parallelism for the pool to harvest.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from _util import emit, once
from repro.netmodel import TopologyConfig, WorldConfig, build_world
from repro.simulation import (
    ReplayTask,
    merged_stats,
    run_grid,
    standard_policy_specs,
)
from repro.workload import WorkloadConfig, generate_trace

METRIC = "rtt_ms"
N_DAYS = 10
N_SEED_SHARDS = 4
BASE_SEED = 1234
PARALLEL_WORKERS = 4


def _grid_tasks():
    specs = standard_policy_specs(METRIC, include_strawmen=False, seed=42)
    return [
        ReplayTask(policy=spec, metric=METRIC, label=f"{name}/shard{shard}")
        for shard in range(N_SEED_SHARDS)
        for name, spec in specs.items()
    ]


@pytest.mark.benchmark(group="ext-parallel")
def test_parallel_replay_speedup_and_identity(benchmark):
    world = build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=20, n_relays=10, seed=5),
            n_days=N_DAYS,
            seed=5,
        )
    )
    trace = generate_trace(
        world.topology,
        WorkloadConfig(n_calls=12_000, n_pairs=150, seed=5),
        n_days=N_DAYS,
    )

    def experiment():
        tasks = _grid_tasks()
        t0 = time.perf_counter()
        serial = run_grid(
            tasks, world=world, trace=trace, base_seed=BASE_SEED, workers=1
        )
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_grid(
            tasks,
            world=world,
            trace=trace,
            base_seed=BASE_SEED,
            workers=PARALLEL_WORKERS,
        )
        t_parallel = time.perf_counter() - t0
        return serial, parallel, t_serial, t_parallel

    serial, parallel, t_serial, t_parallel = once(benchmark, experiment)

    # --- bit-identity: per-task outcome sequences are exactly equal ---
    assert len(serial) == len(parallel) == len(_grid_tasks())
    for a, b in zip(serial, parallel):
        assert a.label == b.label and a.seed == b.seed
        assert [o.option for o in a.result.outcomes] == [
            o.option for o in b.result.outcomes
        ], a.label
        assert [o.metrics for o in a.result.outcomes] == [
            o.metrics for o in b.result.outcomes
        ], a.label

    # --- and so are the merged per-policy statistics ---
    stats_serial = merged_stats(serial)
    stats_parallel = merged_stats(parallel)
    assert stats_serial.keys() == stats_parallel.keys()
    for name in stats_serial:
        assert stats_serial[name].count == stats_parallel[name].count
        assert (stats_serial[name].mean == stats_parallel[name].mean).all()
        assert (
            stats_serial[name].variance() == stats_parallel[name].variance()
        ).all()

    speedup = t_serial / max(t_parallel, 1e-9)
    n_cores = os.cpu_count() or 1
    via_mean = float(np.round(stats_serial[f"via[{METRIC}]"].mean[0], 2))
    emit(
        "ext_parallel_replay",
        "\n".join(
            [
                f"grid: {len(serial)} tasks ({N_SEED_SHARDS} seed shards x "
                f"{len(serial) // N_SEED_SHARDS} policies), "
                f"{len(trace)} calls each",
                f"serial   (workers=1): {t_serial:8.2f} s",
                f"parallel (workers={PARALLEL_WORKERS}): {t_parallel:8.2f} s",
                f"speedup: {speedup:.2f}x on {n_cores} core(s)",
                f"bit-identical results: yes (merged via mean rtt {via_mean} ms)",
            ]
        ),
    )

    if n_cores >= PARALLEL_WORKERS:
        assert speedup >= 3.0, (
            f"expected >=3x speedup at {PARALLEL_WORKERS} workers on "
            f"{n_cores} cores, got {speedup:.2f}x"
        )
