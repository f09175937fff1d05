#!/usr/bin/env python3
"""The repo benchmark: one command, six seeded workloads.

Two ways to call it, both from the root of a checkout:

* the acceptance driver's form, one workload per process::

      python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

  ``--trace 0`` measures the end-to-end metrics with tracing off;
  ``--trace 1`` measures the per-layer metrics (a shorter untraced wire
  window for the scrape-derived numbers, the isolated probes, and the
  traced pass).  The last stdout line is one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``.

* the suite form, for people::

      python3 perf/run.py --seed N [--workload W] [--smoke] [--out DIR] [--repeat K]

  runs each workload in a process of its own (``--trace 0`` then
  ``--trace 1``), prints every metric by name with its unit, the
  per-layer budget, and writes ``<out>/results.json`` for ``compare.py``.

No ``PYTHONPATH`` is needed: ``src/`` next to ``perf/`` is put on the
path here.  In a directory without ``src/repro`` the command exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartiles  # noqa: E402

#: Share of ``--seconds`` the untraced wire window gets under ``--trace 1``;
#: the rest of the run is the probes and the traced pass.
TRACE_WIRE_SHARE = 0.5


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": nproc,
        "loadavg_1min": load1,
        "noisy": load1 > nproc,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# ----------------------------------------------------------------------
# Driver form: one workload, in this process
# ----------------------------------------------------------------------


def _budget(traced: dict, off_path=frozenset()) -> tuple[dict, float]:
    """Traced self times grouped into ``budget.<layer>_us``; returns the
    metrics and the sum over the spans that are neither roots nor off-path."""
    layers: dict = {}
    on_path = 0.0
    for name, us in traced["by_name"].items():
        layer = name.split(".", 1)[0]
        if layer in ("call", "batch"):
            key = "budget.harness_us"  # the root spans' own glue
        elif name in off_path:
            key = "budget.off_path_us"
        else:
            key = f"budget.{layer}_us"
            on_path += us
        layers[key] = layers.get(key, 0.0) + us
    layers["trace.n_spans"] = float(traced["n_spans"])
    return layers, on_path


def _wire_layers(result: dict, traced: dict) -> dict:
    from traced import OFF_PATH

    budget, blocking = _budget(traced, OFF_PATH)
    p50_us = 1e3 * (result["end_to_end"]["latency_p50_ms"] or 0.0)
    return {
        **result["layers"],
        **budget,
        "loop.residual_us": p50_us - blocking,
        "loop.residual_frac": (p50_us - blocking) / p50_us if p50_us else 0.0,
    }


def _replay_layers(traced: dict) -> dict:
    budget, total = _budget(traced)
    total += budget.get("budget.harness_us", 0.0)
    sample = traced["by_name"].get("netmodel.sample_call", 0.0)
    return {
        **budget,
        "replay.policy_share": budget.get("budget.policy_us", 0.0) / total if total else 0.0,
        "replay.sample_share": sample / total if total else 0.0,
    }


def run_one(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    """Run one workload in this process; returns the detail record."""
    from workloads import REPLAY_SPECS, WIRE_SPECS

    env = environment()
    is_wire = workload in WIRE_SPECS
    if not is_wire and workload not in REPLAY_SPECS:
        raise SystemExit(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    if not trace:
        if is_wire:
            from wire import run_wire

            result = run_wire(workload, seed, seconds, out_dir)
        else:
            from replayload import run_replay

            result = run_replay(workload, seed, seconds, out_dir)
        metrics = result["end_to_end"]
    else:
        from probes import run_probes
        from traced import REPLAY_TRACED_CALLS, WIRE_TRACED_CALLS

        # Full-size traced pass from 5 s up; smoke runs shrink with --seconds.
        scale = min(1.0, seconds / 5.0)
        if is_wire:
            from traced import trace_wire
            from wire import run_wire
            from workloads import wire_inputs

            result = run_wire(
                workload, seed, max(1.0, seconds * TRACE_WIRE_SHARE), out_dir, n_setups=1
            )
            probed, warnings = run_probes(out_dir, scale)
            traced = trace_wire(
                wire_inputs(workload, seed, seconds), out_dir, int(WIRE_TRACED_CALLS * scale)
            )
            layers = _wire_layers(result, traced)
        else:
            from replayload import build_policy_for
            from traced import trace_replay
            from workloads import replay_inputs

            inputs = replay_inputs(workload, seed, seconds)
            probed, warnings = run_probes(out_dir, scale)
            traced = trace_replay(
                inputs, build_policy_for(inputs), out_dir, int(REPLAY_TRACED_CALLS * scale)
            )
            layers = _replay_layers(traced)
            result = {
                "workload": workload, "seed": seed, "seconds": seconds,
                "digest": inputs.digest, "attempted": traced["n_calls"], "failed": 0,
                "checks": [("the traced pass covered its prefix", traced["n_calls"] > 0, "")],
                "end_to_end": {}, "info": {},
            }
        result["layers"] = {**layers, **probed}
        result["info"]["probe_warnings"] = warnings
        result["info"]["trace_file"] = traced["path"]
        result["info"]["budget_by_name"] = traced["by_name"]
        metrics = result["layers"]
    result["trace"] = trace
    result["env"] = env
    result["wall_s"] = time.perf_counter() - t_start
    result["metrics"] = metrics
    return result


def contract_line(result: dict, bench: dict) -> dict:
    """The one JSON object the acceptance driver reads."""
    from probes import PROBE_METRICS

    spec = bench["per_layer"] if result["trace"] else bench["end_to_end"]
    metrics = {}
    correct = all(ok for _, ok, _ in result["checks"])
    for entry in spec:
        value = result["metrics"].get(entry["name"])
        if value is None and not result["trace"]:
            correct = False  # an end-to-end metric nobody could measure
        elif value is None and entry["name"] not in PROBE_METRICS:
            value = 0.0  # a layer this workload does not exercise
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def print_result(result: dict, line: dict) -> None:
    env = result["env"]
    print(
        f"# {result['workload']} seed={result['seed']} seconds={result['seconds']} "
        f"trace={result['trace']} inputs_sha256={result['digest'][:16]}"
    )
    print(
        f"# nproc={env['nproc']} loadavg_1min={env['loadavg_1min']:.2f} "
        f"python={env['python']} numpy={env['numpy']} noisy={str(env['noisy']).lower()}"
    )
    for name, metric in line["metrics"].items():
        shown = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name:40s} {shown:>14s} {metric['unit']}")
    info = result.get("info", {})
    for name, value in info.get("tail", {}).items():
        if value is not None:
            print(f"# {name} = {value:.6g} (reported, no bound)")
    if "latency_samples_per_tail_pool" in info:
        print(f"# latency samples per segment: {info['latency_samples_per_segment']}")
        print(f"# latency samples per p95/p99 pool: {info['latency_samples_per_tail_pool']}")
    if "speed_factor" in info:
        print(f"# machine speed factor (median over segments): {info['speed_factor']:.3f}; "
              f"raw medians: {json.dumps(info['raw'])}")
    if info.get("fail_frac") is not None:
        print(f"# fail_frac = {info['fail_frac']:.6g} ({result['failed']} of {result['attempted']})")
    for label, ok, detail in result["checks"]:
        print(f"# check {'ok  ' if ok else 'FAIL'} {label}" + (f" -- {detail}" if detail else ""))
    print(f"# wall {result['wall_s']:.1f} s")


def detail_path(out_dir: Path, workload: str, seed: int, trace: int) -> Path:
    return out_dir / f"run_{workload}_seed{seed}_trace{trace}.json"


# ----------------------------------------------------------------------
# Suite form: every workload, each in a process of its own
# ----------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError(f"{workload} trace={trace} printed nothing:\n{proc.stderr[-2000:]}")
    line = json.loads(lines[-1])
    detail = json.loads(detail_path(out_dir, workload, seed, trace).read_text(encoding="utf-8"))
    detail["returncode"] = proc.returncode
    detail["line"] = line
    sys.stderr.write(proc.stderr)
    return detail


def print_budget(detail: dict) -> None:
    layers = detail["layers"]
    by_name = detail["info"]["budget_by_name"]
    print(f"\nPer-layer budget, {detail['workload']} (mean self time per call, traced pass)")
    for name, us in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:34s} {us:10.2f} us")
    if "loop.residual_us" in layers:
        on_path = sum(
            v for k, v in layers.items()
            if k.startswith("budget.") and k not in ("budget.off_path_us", "budget.harness_us")
        )
        p50 = on_path + layers["loop.residual_us"]
        print(f"  {'blocking-path layers':34s} {on_path:10.2f} us")
        print(f"  {'loop.residual_us':34s} {layers['loop.residual_us']:10.2f} us")
        print(f"  {'= latency_p50 (untraced window)':34s} {p50:10.2f} us")
        print(f"  {'loop.residual_frac':34s} {layers['loop.residual_frac']:10.3f}")


def run_suite(args, bench: dict) -> int:
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds
    env = environment()
    print(
        f"# perf suite: seed={args.seed} seconds={seconds} repeat={args.repeat} "
        f"nproc={env['nproc']} loadavg_1min={env['loadavg_1min']:.2f} "
        f"python={env['python']} numpy={env['numpy']} noisy={str(env['noisy']).lower()}"
    )
    runs: list[dict] = []
    ok = True
    e2e_names = [e["name"] for e in bench["end_to_end"]]
    values: dict = {w: {m: [] for m in e2e_names} for w in names}
    for rep in range(args.repeat):
        seed = args.seed + rep
        for workload in names:
            detail = _spawn(workload, seed, seconds, 0, out_dir)
            runs.append(detail)
            ok = ok and detail["line"]["correct"] and detail["returncode"] == 0
            for m in e2e_names:
                value = detail["metrics"].get(m)
                if value is not None:
                    values[workload][m].append(value)
            print(f"# {workload} seed={seed}: {'ok' if detail['line']['correct'] else 'INCORRECT'} "
                  f"in {detail['wall_s']:.1f} s, inputs {detail['digest'][:16]}")
            for label, good, info in detail["checks"]:
                if not good:
                    print(f"#   FAILED check: {label} -- {info}")
    traced: dict = {}
    for workload in names:
        detail = _spawn(workload, args.seed, seconds, 1, out_dir)
        runs.append(detail)
        traced[workload] = detail
        ok = ok and detail["line"]["correct"] and detail["returncode"] == 0

    units = {e["name"]: e["unit"] for e in bench["end_to_end"] + bench["per_layer"]}
    print("\nEnd-to-end metrics (median over repeats; tracing off)")
    print(f"{'metric':18s} {'unit':6s} " + " ".join(f"{w:>15s}" for w in names))
    summary: dict = {}
    for m in e2e_names:
        cells = []
        for w in names:
            vals = values[w][m]
            summary.setdefault(w, {})[m] = {"values": vals}
            if vals:
                q1, q2, q3 = quartiles(vals)
                summary[w][m].update(median=q2, q1=q1, q3=q3)
                cells.append(f"{q2:15.6g}")
            else:
                cells.append(f"{'null':>15s}")
        print(f"{m:18s} {units[m]:6s} " + " ".join(cells))
    print("\nPer-layer metrics (traced run, seed %d)" % args.seed)
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{w:>15s}" for w in names))
    for entry in bench["per_layer"]:
        cells = []
        for w in names:
            value = traced[w]["line"]["metrics"][entry["name"]]["value"]
            cells.append(f"{'null':>15s}" if value is None else f"{value:15.6g}")
        print(f"{entry['name']:38s} {entry['unit']:6s} " + " ".join(cells))
    for w in names:
        if w == "wire_unloaded" or len(names) == 1:
            print_budget(traced[w])
    results = {"env": env, "seed": args.seed, "seconds": seconds, "repeat": args.repeat,
               "summary": summary,
               "per_layer": {w: traced[w]["line"]["metrics"] for w in names},
               "runs": runs}
    (out_dir / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\nwrote {out_dir / 'results.json'}; traces in {out_dir}/trace_<workload>.jsonl")
    print("all correctness checks passed" if ok else "CORRECTNESS CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="1 s per workload")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(bench["run_seconds"])
    if args.trace is None:
        return run_suite(args, bench)
    if not args.workload:
        parser.error("--trace needs --workload")
    out_dir = Path(args.out).resolve()
    result = run_one(args.workload, args.seed, args.seconds, args.trace, out_dir)
    line = contract_line(result, bench)
    print_result(result, line)
    detail_path(out_dir, args.workload, args.seed, args.trace).write_text(
        json.dumps(result, indent=1, default=str), encoding="utf-8"
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
