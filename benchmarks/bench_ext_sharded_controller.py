"""Sharded controller: what the §7 partitioning answer costs -- and buys.

The paper's discussion proposes partitioning the controller for scale.
Shards learn independently, so tomography (which pools relay-segment
observations *across* pairs) loses coverage as K grows.  This bench
replays VIA behind 1, 4 and 16 shards, then measures the two remedies
the deployment ring (``repro.deployment.ring``) implements:

* **replicated learning** -- gossip converges every shard onto the
  fleet-wide history; modelled here by sharing one ``CallHistory``
  across all shard policies, quality must land within noise of K = 1;
* **power-of-d-choices placement** -- load-aware sticky placement vs
  static hashing, measured as max/mean load imbalance.

With ``REPRO_BENCH_RECORD=1`` (``make bench-record``) the table is
recorded to ``BENCH_sharding.json`` at the repo root.  The ring's speed
is not measured here: a fleet throughput figure needs a box with more
cores than shards, and ``perf/`` owns speed.
"""

from __future__ import annotations

import pytest

from _util import emit, once, record_bench_json
from repro.analysis import format_table, pnr_breakdown, relative_improvement
from repro.core.baselines import make_via
from repro.core.sharding import ShardedPolicy
from repro.simulation import make_inter_relay_lookup
from repro.simulation.replay import replay

METRIC = "rtt_ms"
SHARD_COUNTS = (4, 16)


@pytest.mark.benchmark(group="ext-sharding")
def test_ext_sharded_controller(benchmark, suite, bench_world, bench_trace, bench_plan):
    def experiment():
        inter_relay = make_inter_relay_lookup(bench_world)
        base = pnr_breakdown(suite.evaluate(suite.results(METRIC)["default"]))
        table = {
            "1 shard": {
                "pnr": pnr_breakdown(suite.evaluate(suite.results(METRIC)["via"]))[METRIC],
                "imbalance": 1.0,
            }
        }
        for n_shards in SHARD_COUNTS:
            policy = ShardedPolicy(
                lambda i: make_via(METRIC, inter_relay=inter_relay, seed=42 + i),
                n_shards,
            )
            result = replay(bench_world, bench_trace, policy, seed=99)
            table[f"{n_shards} shards"] = {
                "pnr": pnr_breakdown(bench_plan.evaluate(result))[METRIC],
                "imbalance": policy.load_imbalance(),
            }
        # Replicated learning: every shard reads (and feeds) one shared
        # history -- the state ring gossip converges to.  Routing, load
        # and bandit state stay per-shard; only learned history is global.
        replicated = ShardedPolicy(
            lambda i: make_via(METRIC, inter_relay=inter_relay, seed=42 + i),
            4,
        )
        shared_history = replicated.shards[0].history
        for shard_policy in replicated.shards[1:]:
            shard_policy.history = shared_history
        result = replay(bench_world, bench_trace, replicated, seed=99)
        table["4 shards (replicated)"] = {
            "pnr": pnr_breakdown(bench_plan.evaluate(result))[METRIC],
            "imbalance": replicated.load_imbalance(),
        }
        # Power-of-d-choices placement vs static hashing at K = 16.
        pod = ShardedPolicy(
            lambda i: make_via(METRIC, inter_relay=inter_relay, seed=42 + i),
            16,
            placement="power_of_d",
            d_choices=2,
        )
        result = replay(bench_world, bench_trace, pod, seed=99)
        table["16 shards (power-of-2)"] = {
            "pnr": pnr_breakdown(bench_plan.evaluate(result))[METRIC],
            "imbalance": pod.load_imbalance(),
        }
        return base, table

    base, table = once(benchmark, experiment)
    rows = [
        [name, f"{d['imbalance']:.2f}", f"{d['pnr']:.3f}",
         f"{relative_improvement(base[METRIC], d['pnr']):.0f}%"]
        for name, d in table.items()
    ]
    emit(
        "ext_sharded_controller",
        format_table(
            ["control plane", "load imbalance (max/mean)", f"PNR({METRIC})", "improvement"],
            rows,
            title="§7 extension: partitioned controller",
        ),
    )

    single = relative_improvement(base[METRIC], table["1 shard"]["pnr"])
    # Moderate sharding must stay close to the single logical controller...
    assert relative_improvement(base[METRIC], table["4 shards"]["pnr"]) >= single - 15.0
    # ...and even heavy sharding keeps most of the benefit (dense pairs
    # carry their own history; only tomography coverage shrinks).
    assert relative_improvement(base[METRIC], table["16 shards"]["pnr"]) >= 0.5 * single
    # Hash partitioning balances load reasonably.
    assert table["16 shards"]["imbalance"] < 6.0
    # Replicated learning recovers K = 1 quality: the 4-shard fleet with a
    # fleet-wide history must sit within noise of the single controller.
    replicated = relative_improvement(base[METRIC], table["4 shards (replicated)"]["pnr"])
    assert abs(replicated - single) <= 5.0
    # Power-of-d placement must not balance worse than static hashing
    # (load-aware placement is the whole point) and keep hash-level quality.
    assert (
        table["16 shards (power-of-2)"]["imbalance"]
        <= table["16 shards"]["imbalance"] + 0.05
    )
    assert (
        relative_improvement(base[METRIC], table["16 shards (power-of-2)"]["pnr"])
        >= 0.5 * single
    )

    record_bench_json(
        "sharding",
        "bench_ext_sharded_controller",
        {
            "metric": METRIC,
            "baseline_pnr": base[METRIC],
            "configurations": {
                name: {
                    "pnr": d["pnr"],
                    "improvement_pct": relative_improvement(base[METRIC], d["pnr"]),
                    "load_imbalance": d["imbalance"],
                }
                for name, d in table.items()
            },
        },
    )
