"""The §7 hybrid extension in action: reactive selection on long calls.

Compares the default path and plain VIA against the hybrid reactive
policy, which probes its prediction-pruned top options during the first
seconds of long calls and keeps the winner.

    python examples/hybrid_reactive.py
"""

from __future__ import annotations

from repro import WorkloadConfig, WorldConfig, build_world, generate_trace
from repro.analysis import format_table, pnr_breakdown, relative_improvement
from repro.core import HybridReactivePolicy, ViaConfig
from repro.core.baselines import DefaultPolicy, make_via
from repro.netmodel import TopologyConfig
from repro.simulation import ExperimentPlan, make_inter_relay_lookup
from repro.simulation.replay import replay


def main() -> None:
    world = build_world(
        WorldConfig(topology=TopologyConfig(n_countries=20, n_relays=10), n_days=12)
    )
    trace = generate_trace(
        world.topology, WorkloadConfig(n_calls=30_000, n_pairs=350), n_days=12
    )
    plan = ExperimentPlan(world=world, trace=trace, warmup_days=2, min_pair_calls=100)
    inter_relay = make_inter_relay_lookup(world)

    results = {}
    results["default"] = replay(world, trace, DefaultPolicy(), seed=9)
    results["via"] = replay(world, trace, make_via("rtt_ms", inter_relay=inter_relay), seed=9)

    hybrid = HybridReactivePolicy(
        ViaConfig(metric="rtt_ms", seed=42), inter_relay=inter_relay,
        probe_top_n=3, min_duration_s=90.0,
    )
    results["hybrid-reactive"] = replay(world, trace, hybrid, seed=9)

    base = pnr_breakdown(plan.evaluate(results["default"]))["rtt_ms"]
    rows = []
    for name, result in results.items():
        value = pnr_breakdown(plan.evaluate(result))["rtt_ms"]
        rows.append([name, f"{value:.3f}", f"{relative_improvement(base, value):.0f}%"])
    print(format_table(
        ["strategy", "PNR(rtt)", "improvement"],
        rows,
        title=f"§7 hybrid reactive selection ({hybrid.n_probed_calls} in-call probed calls)",
    ))


if __name__ == "__main__":
    main()
