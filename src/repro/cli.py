"""Command-line interface: run the paper's experiments from a shell.

Subcommands:

* ``simulate`` -- build a world + trace, replay a policy suite, print PNR.
* ``trace``    -- generate a call trace and save it as JSON lines.
* ``testbed``  -- run the §5.5 asyncio controller/client deployment.
* ``quality``  -- E-model MOS / poor-call probability for a metric triple.
* ``policies`` -- list the policy registry (capabilities, config schema).
* ``store``    -- inspect / verify / compact a controller's durable store.
* ``verify``   -- run the conformance verification plane (oracle
  differential, WAL crash-point sweep, lifecycle fuzz).
* ``soak``     -- time-compressed chaos endurance run with invariant
  watchdogs (lifecycle cycling + resource trend lines).

Examples::

    python -m repro simulate --calls 20000 --metric rtt_ms
    python -m repro trace --calls 5000 --out /tmp/trace.jsonl
    python -m repro testbed --pairs 18 --via-rounds 30
    python -m repro quality --rtt 320 --loss 0.012 --jitter 12
    python -m repro policies --name via
    python -m repro store verify /var/lib/via/store
    python -m repro verify --budget full --seed 0
    python -m repro soak --budget smoke --seed 0
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.reporting import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VIA (SIGCOMM 2016) reproduction: predictive relay selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="replay a policy suite and report PNR")
    _add_world_args(sim)
    sim.add_argument("--trace-in", default=None,
                     help="replay a saved trace (.jsonl from `repro trace`) "
                          "instead of generating one; world args still "
                          "control the network model")
    sim.add_argument("--metric", default="rtt_ms", type=_metric_name,
                     help="objective the policies optimise: a path metric "
                          "(rtt_ms, loss_rate, jitter_ms) or mos")
    sim.add_argument("--no-strawmen", action="store_true",
                     help="only default / VIA / oracle")
    sim.add_argument("--warmup-days", type=int, default=2)
    sim.add_argument("--min-pair-calls", type=int, default=100,
                     help="density floor for evaluated AS pairs")
    sim.add_argument("--full-report", action="store_true",
                     help="print the full multi-section report (PNR with "
                          "error bars, percentile improvements, intl/"
                          "domestic split, relay mix)")

    trace = sub.add_parser("trace", help="generate a call trace as JSON lines")
    _add_world_args(trace)
    trace.add_argument("--out", required=True, help="output path (.jsonl)")

    testbed = sub.add_parser("testbed", help="run the §5.5 live deployment")
    testbed.add_argument("--clients", type=int, default=14)
    testbed.add_argument("--pairs", type=int, default=18)
    testbed.add_argument("--measurement-rounds", type=int, default=4)
    testbed.add_argument("--via-rounds", type=int, default=30)
    testbed.add_argument("--seed", type=int, default=99)

    quality = sub.add_parser("quality", help="score a (rtt, loss, jitter) triple")
    quality.add_argument("--rtt", type=float, required=True, help="RTT in ms")
    quality.add_argument("--loss", type=float, required=True, help="loss rate [0,1]")
    quality.add_argument("--jitter", type=float, required=True, help="jitter in ms")

    policies = sub.add_parser(
        "policies", help="list registered selection policies"
    )
    policies.add_argument(
        "--name", default=None,
        help="show one policy in detail: description, capability flags, "
             "and the full config schema with defaults",
    )

    store = sub.add_parser(
        "store", help="inspect/verify/compact a controller's durable store"
    )
    store.add_argument(
        "action",
        choices=("inspect", "verify", "compact"),
        help="inspect: summarise segments and snapshot; "
             "verify: scan for corruption (exit 1 if any; a torn "
             "tail is not corruption); "
             "compact: delete the segments the snapshot covers",
    )
    store.add_argument("dir", help="store root directory (the controller's store_dir)")

    verify = sub.add_parser(
        "verify", help="run the conformance verification plane"
    )
    verify.add_argument("--budget", choices=("small", "full"), default="small",
                        help="preset check volume (small: quick gate; "
                             "full: acceptance-sized sweep)")
    verify.add_argument("--seed", type=int, default=0,
                        help="master seed; reproduces a failure artifact")
    verify.add_argument("--streams", type=int, default=None,
                        help="override: differential call streams")
    verify.add_argument("--steps", type=int, default=None,
                        help="override: policy steps per differential stream")
    verify.add_argument("--crash-rounds", type=int, default=None,
                        help="override: rounds in the crash-sweep workload")
    verify.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock cap in seconds (legs past the cap "
                             "are skipped and reported as truncated)")
    verify.add_argument("--artifacts-dir", default=".verify-failures",
                        help="where failure artifacts are written")

    soak = sub.add_parser(
        "soak", help="chaos endurance run with invariant watchdogs"
    )
    soak.add_argument("--budget", choices=("smoke", "full"), default="smoke",
                      help="preset run length (smoke: sub-minute CI gate; "
                           "full: hours-long endurance run)")
    soak.add_argument("--seed", type=int, default=0,
                      help="master seed; traffic, chaos plan and report "
                           "fingerprint are all derived from it")
    soak.add_argument("--ticks", type=int, default=None,
                      help="override: soak length in ticks")
    soak.add_argument("--shards", type=int, default=None,
                      help="override: run an N-shard ring instead of a "
                           "single controller (0 or 1 soaks a single "
                           "controller)")
    soak.add_argument("--plant-leak", choices=("objects", "fds", "series"),
                      default=None,
                      help="deliberately plant a leak to self-test the "
                           "watchdog (the run must FAIL, naming the "
                           "matching invariant)")
    soak.add_argument("--time-budget", type=float, default=None,
                      help="wall-clock cap in seconds (remaining ticks are "
                           "skipped and reported as truncated)")
    soak.add_argument("--artifacts-dir", default=".soak-failures",
                      help="where failure artifacts are written")
    soak.add_argument("--out", default=None,
                      help="also write the full report JSON here, pass or fail")

    return parser


def _metric_name(value: str) -> str:
    """``simulate --metric``'s check, run only when ``simulate`` is parsed:
    the cost models (and numpy under them) load for no other command."""
    from repro.core.costs import COST_MODEL_NAMES

    if value not in COST_MODEL_NAMES:
        choices = ", ".join(map(repr, COST_MODEL_NAMES))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {choices})"
        )
    return value


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--calls", type=int, default=20_000)
    parser.add_argument("--pairs-population", type=int, default=400, dest="n_pairs")
    parser.add_argument("--days", type=int, default=15)
    parser.add_argument("--countries", type=int, default=20)
    parser.add_argument("--relays", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)


def _build_world(args: argparse.Namespace):
    from repro.netmodel import TopologyConfig, WorldConfig, build_world

    return build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=args.countries, n_relays=args.relays),
            n_days=args.days,
            seed=args.seed,
        )
    )


def _build_world_and_trace(args: argparse.Namespace):
    from repro.workload import WorkloadConfig, generate_trace

    world = _build_world(args)
    trace = generate_trace(
        world.topology,
        WorkloadConfig(n_calls=args.calls, n_pairs=args.n_pairs, seed=args.seed),
        n_days=args.days,
    )
    return world, trace


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import experiment_report, pnr_breakdown, relative_improvement
    from repro.simulation import ExperimentPlan, standard_policies

    if args.trace_in:
        from repro.workload import TraceDataset

        world = _build_world(args)
        trace = TraceDataset.load_jsonl(args.trace_in)
    else:
        world, trace = _build_world_and_trace(args)
    plan = ExperimentPlan(
        world=world, trace=trace,
        warmup_days=args.warmup_days, min_pair_calls=args.min_pair_calls,
    )
    policies = standard_policies(
        world, args.metric, include_strawmen=not args.no_strawmen
    )
    results = plan.run(policies, seed=args.seed)
    if args.full_report:
        evaluated = {name: plan.evaluate(r) for name, r in results.items()}
        print(experiment_report(evaluated, metric=args.metric, results=results))
        return 0
    base = pnr_breakdown(plan.evaluate(results["default"]))
    rows = []
    for name, result in results.items():
        breakdown = pnr_breakdown(plan.evaluate(result))
        shown = args.metric if args.metric in breakdown else "any"
        rows.append([
            name,
            f"{breakdown[shown]:.3f}",
            f"{breakdown['any']:.3f}",
            f"{relative_improvement(base[shown], breakdown[shown]):.0f}%",
        ])
    print(format_table(
        ["strategy", f"PNR({args.metric})" if args.metric in base else "PNR(any)",
         "PNR(any)", "improvement"],
        rows,
        title=f"Simulation: {len(trace):,} calls, {len(plan.dense)} dense pairs, "
              f"optimising {args.metric}",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    _world, trace = _build_world_and_trace(args)
    trace.save_jsonl(args.out)
    summary = trace.summary()
    print(f"wrote {summary.n_calls:,} calls to {args.out} "
          f"({100 * summary.frac_international:.0f}% international, "
          f"{summary.n_as_pairs} AS pairs, {args.days} days)")
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    from repro.deployment import TestbedConfig, run_testbed

    report = run_testbed(
        TestbedConfig(
            n_clients=args.clients,
            n_pairs=args.pairs,
            measurement_rounds=args.measurement_rounds,
            via_rounds=args.via_rounds,
            seed=args.seed,
        )
    )
    print(format_table(
        ["statistic", "value"],
        [
            ["pairs", report.n_pairs],
            ["VIA-driven calls", report.n_calls],
            ["measurement calls", report.n_measurements],
            ["options per pair", f"{min(report.options_per_pair)}-{max(report.options_per_pair)}"],
            ["picked exact best", f"{report.frac_exact_best:.0%}"],
            ["within 20% of oracle", f"{report.frac_within(0.2):.0%}"],
            ["within 50% of oracle", f"{report.frac_within(0.5):.0%}"],
        ],
        title="§5.5 controlled deployment (Figure 18)",
    ))
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    from repro.netmodel.metrics import PathMetrics
    from repro.telephony.quality import mos_from_network, poor_call_probability

    try:
        metrics = PathMetrics(rtt_ms=args.rtt, loss_rate=args.loss, jitter_ms=args.jitter)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mos = mos_from_network(metrics)
    pcr = poor_call_probability(metrics)
    print(f"MOS = {mos:.2f}   P(rated poor) = {pcr:.1%}")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro.core.registry import REGISTRY, UnknownPolicyError

    def flags(entry) -> str:
        letters = [
            "B" if entry.supports_batch else "-",
            "C" if entry.supports_checkpoint else "-",
            "M" if entry.supports_multipath else "-",
            "W" if entry.needs_world else "-",
        ]
        return "".join(letters)

    if args.name is not None:
        try:
            entry = REGISTRY.get(args.name)
        except UnknownPolicyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{entry.name}: {entry.description}")
        print(format_table(
            ["capability", "value"],
            [
                ["batch (assign_many/observe_many)", str(entry.supports_batch)],
                ["checkpoint (state_dict)", str(entry.supports_checkpoint)],
                ["multipath (assign_paths)", str(entry.supports_multipath)],
                ["needs world", str(entry.needs_world)],
            ],
        ))
        if entry.schema:
            print(format_table(
                ["config field", "type", "default"],
                [[f.name, f.type, repr(f.default)] for f in entry.schema],
                title="Config schema (pass as build overrides)",
            ))
        else:
            print("no configurable fields beyond metric/seed")
        return 0
    rows = [
        [entry.name, flags(entry), entry.description]
        for entry in REGISTRY.entries()
    ]
    print(format_table(
        ["policy", "BCMW", "description"],
        rows,
        title="Policy registry (B=batch C=checkpoint M=multipath W=needs-world); "
              "`repro policies --name NAME` for the config schema",
    ))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.store import Store, read_segment, read_wal

    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    wal_dir = root / "wal"
    snapshot_file = root / "snapshot.json"

    if args.action == "compact":
        store = Store(root)
        try:
            result = store.compact()
        finally:
            store.close()
        print(format_table(
            ["statistic", "value"],
            [
                ["segments deleted", result.n_segments],
                ["bytes reclaimed", result.bytes_reclaimed],
            ],
            title=f"Compaction of {root}",
        ))
        return 0

    # inspect / verify share the read-only scan.
    from repro.store.wal import segment_paths

    snapshot_seq = 0
    snapshot_state = "missing"
    if snapshot_file.exists():
        try:
            payload = json.loads(snapshot_file.read_text(encoding="utf-8"))
            from repro.store import SNAPSHOT_FORMAT

            if payload.get("format") != SNAPSHOT_FORMAT:
                raise ValueError(payload.get("format"))
            snapshot_seq = int(payload["last_seq"])
            snapshot_state = "ok"
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            snapshot_state = "corrupt"

    if args.action == "inspect":
        rows = []
        for path in segment_paths(wal_dir) if wal_dir.is_dir() else []:
            seg = read_segment(path)
            seqs = [r["seq"] for r in seg.records]
            health = "torn" if seg.torn else ("corrupt" if seg.n_corrupt else "ok")
            rows.append([
                path.name,
                f"{min(seqs)}-{max(seqs)}" if seqs else "-",
                len(seg.records),
                path.stat().st_size,
                health,
            ])
        if rows:
            print(format_table(
                ["segment", "seq range", "records", "bytes", "health"],
                rows, title=f"WAL segments under {wal_dir}",
            ))
        else:
            print(f"no WAL segments under {wal_dir}")
        print(format_table(
            ["statistic", "value"],
            [["snapshot", f"{snapshot_state} (covers seq {snapshot_seq})"]],
        ))
        return 0

    # verify: exit 1 on damage anywhere in the store.  A torn final frame
    # is not damage: it is what a kill mid-append leaves, and recovery
    # drops it without losing an acknowledged record.
    result = read_wal(wal_dir) if wal_dir.is_dir() else None
    n_corrupt = result.n_corrupt if result else 0
    n_torn = result.n_torn_segments if result else 0
    n_records = len(result.records) if result else 0
    seqs = set(r["seq"] for r in result.records) if result else set()
    missing: set[int] = set()
    if seqs:
        missing = set(range(min(seqs), max(seqs) + 1)) - seqs
    gaps = len(missing)
    damaged = (
        n_corrupt > 0
        or snapshot_state == "corrupt"
        # A seq gap below the snapshot horizon is fine (compacted away);
        # one above it means records recovery needs are gone.
        or any(s > snapshot_seq for s in missing)
    )
    if damaged:
        verdict = "DAMAGED"
    elif n_torn:
        verdict = "clean (torn tail dropped)"
    else:
        verdict = "clean"
    print(format_table(
        ["check", "result"],
        [
            ["WAL records readable", n_records],
            ["corrupt frames", n_corrupt],
            ["torn segments", n_torn],
            ["seq gaps", gaps],
            ["snapshot", snapshot_state],
        ],
        title=f"Verification of {root}: {verdict}",
    ))
    return 1 if damaged else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.verify import VerifyBudget, run_verify

    preset = VerifyBudget.full if args.budget == "full" else VerifyBudget.small
    budget = preset(seed=args.seed)
    overrides = {}
    if args.streams is not None:
        overrides["differential_streams"] = args.streams
    if args.steps is not None:
        overrides["differential_steps"] = args.steps
    if args.crash_rounds is not None:
        overrides["crash_rounds"] = args.crash_rounds
    if args.time_budget is not None:
        overrides["time_budget_s"] = args.time_budget
    if overrides:
        budget = dataclasses.replace(budget, **overrides)
    report = run_verify(budget, artifacts_dir=args.artifacts_dir)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.soak import SoakBudget, run_soak

    preset = SoakBudget.full if args.budget == "full" else SoakBudget.smoke
    budget = preset(seed=args.seed)
    overrides = {}
    if args.ticks is not None:
        overrides["ticks"] = args.ticks
    if args.shards is not None:
        overrides["n_shards"] = args.shards
    if args.time_budget is not None:
        overrides["time_budget_s"] = args.time_budget
    if overrides:
        budget = dataclasses.replace(budget, **overrides)
    report = run_soak(
        budget, artifacts_dir=args.artifacts_dir, plant=args.plant_leak
    )
    if args.out is not None:
        from pathlib import Path

        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, default=repr), encoding="utf-8"
        )
    print(report.summary())
    return 0 if report.ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "testbed": _cmd_testbed,
    "quality": _cmd_quality,
    "policies": _cmd_policies,
    "store": _cmd_store,
    "verify": _cmd_verify,
    "soak": _cmd_soak,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
