"""Replay workloads: the simulation plane, single process, fixed size.

``replay()`` is driven in consecutive slices of the seeded trace with one
persistent policy, so the harness can time each slice from outside: a
slice's turnaround is the replay plane's latency sample, and groups of
slices are the segments (each bracketed by a calibration burst, see
``calibrate.py``) every time-like metric is the median of.
The size is fixed by (workload, seconds), never by the clock, so
``pnr_rtt`` and the outcome digest are deterministic for a seed.
"""

from __future__ import annotations

import hashlib
import resource
from pathlib import Path
from time import perf_counter, process_time

from calibrate import kernel_speed, speed_factor
from stats import median, percentile
from workloads import ReplayInputs, replay_inputs

__all__ = ["run_replay", "build_policy_for", "outcome_digest", "N_SEGMENTS"]

#: Groups of consecutive slices, each bracketed by a calibration burst.
N_SEGMENTS = 12
N_SETUPS = 3
#: The determinism check replays at least this many calls a second time.
PREFIX_CALLS = 5000
#: The default-policy comparison runs on every ``DEFAULT_STRIDE``-th call.
DEFAULT_STRIDE = 4


def build_policy_for(inputs: ReplayInputs, name: str = "via"):
    from repro.core import build_policy

    overrides = inputs.spec.policy_overrides if name == "via" else {}
    return build_policy(name, inputs.world, seed=inputs.policy_seed, **overrides)


def outcome_digest(outcomes) -> str:
    digest = hashlib.sha256()
    for o in outcomes:
        m = o.metrics
        digest.update(
            f"{o.call.call_id}|{o.option}|{m.rtt_ms!r}|{m.loss_rate!r}|{m.jitter_ms!r}\n".encode()
        )
    return digest.hexdigest()


def _slices(inputs: ReplayInputs, limit: int | None = None) -> list:
    from repro.workload import TraceDataset

    calls = inputs.trace.calls if limit is None else inputs.trace.calls[:limit]
    step = inputs.spec.slice_calls
    return [
        TraceDataset(calls=calls[i : i + step], n_days=inputs.trace.n_days)
        for i in range(0, len(calls), step)
    ]


def _replay_slices(inputs: ReplayInputs, policy, slices, first: int = 0) -> tuple[list, list[float]]:
    """Replay ``slices`` in order (``first`` is the index of the first one
    in the whole run); returns (outcomes, turnaround per slice)."""
    from repro.simulation import replay

    world, spec = inputs.world, inputs.spec
    outcomes: list = []
    turnaround: list[float] = []
    for k, piece in enumerate(slices, start=first):
        t0 = perf_counter()
        result = replay(
            world, piece, policy, seed=inputs.outcome_seed + k, batch_calls=spec.batch_calls
        )
        turnaround.append(perf_counter() - t0)
        outcomes.extend(result.outcomes)
    return outcomes, turnaround


def run_replay(name: str, seed: int, seconds: float, out_dir: Path, *, n_setups: int = N_SETUPS) -> dict:
    from repro.analysis import pnr
    from repro.simulation import replay
    from repro.workload import TraceDataset

    del out_dir  # replay workloads leave nothing on disk
    setups: list[float] = []
    setups_raw: list[float] = []
    for _ in range(n_setups):
        speed_before = kernel_speed()
        t0 = perf_counter()
        inputs = replay_inputs(name, seed, seconds)
        policy = build_policy_for(inputs)
        setups_raw.append(perf_counter() - t0)
        setups.append(setups_raw[-1] * speed_factor(speed_before, kernel_speed()))
    spec = inputs.spec
    slices = _slices(inputs)

    # ---- the measured replay: groups of slices between calibration bursts ---
    n_slices = len(slices)
    bounds = sorted({round(k * n_slices / N_SEGMENTS) for k in range(N_SEGMENTS + 1)})
    outcomes: list = []
    rates, p50s, cpus, factors, scaled, raw_turnaround = ([] for _ in range(6))
    raw = {"rate": [], "p50": [], "cpu": []}
    before = kernel_speed()
    for a, b in zip(bounds, bounds[1:]):
        cpu0 = process_time()
        t0 = perf_counter()
        got, turnaround = _replay_slices(inputs, policy, slices[a:b], first=a)
        wall = perf_counter() - t0
        cpu = process_time() - cpu0
        after = kernel_speed()
        factor = speed_factor(before, after)
        before = after
        outcomes.extend(got)
        factors.append(factor)
        raw["rate"].append(len(got) / wall)
        raw["p50"].append(percentile(turnaround, 50))
        raw["cpu"].append(cpu / max(1, len(got)))
        rates.append(raw["rate"][-1] / factor)
        p50s.append(raw["p50"][-1] * factor)
        cpus.append(raw["cpu"][-1] * factor)
        scaled.extend(t * factor for t in turnaround)
        raw_turnaround.extend(turnaround)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    slo_s = spec.slo_ms / 1e3
    attempted = len(inputs.trace)
    in_slo = sum(len(s) for s, t in zip(slices, raw_turnaround) if t <= slo_s)

    # ---- correctness -------------------------------------------------------
    world = inputs.world
    not_offered = 0
    for o in outcomes:
        call = o.call
        offered = world.options_for_pair(call.src_asn, call.dst_asn)
        if o.option not in offered or (call.direct_blocked and not o.option.is_relayed):
            not_offered += 1
    failed = (attempted - len(outcomes)) + not_offered

    n_prefix = -(-PREFIX_CALLS // spec.slice_calls) * spec.slice_calls
    again, _ = _replay_slices(
        inputs, build_policy_for(inputs), _slices(inputs, min(n_prefix, attempted))
    )
    first = outcome_digest(outcomes[: len(again)])
    second = outcome_digest(again)

    strided = TraceDataset(
        calls=inputs.trace.calls[::DEFAULT_STRIDE], n_days=inputs.trace.n_days
    )
    by_default = replay(
        world, strided, build_policy_for(inputs, "default"), seed=inputs.outcome_seed
    )
    pnr_via = pnr(outcomes, "rtt_ms")
    pnr_via_strided = pnr(outcomes[::DEFAULT_STRIDE], "rtt_ms")
    pnr_default = pnr(by_default.outcomes, "rtt_ms")

    checks = [
        (
            "every call has exactly one outcome",
            len(outcomes) == attempted,
            f"{len(outcomes)} outcomes for {attempted} calls",
        ),
        ("every outcome's option was offered", not_offered == 0, f"{not_offered} not offered"),
        (
            f"outcome digest of the first {len(again)} calls repeats",
            first == second,
            f"{first[:12]} vs {second[:12]}",
        ),
        (
            "pnr_rtt of via is below the default policy's on the same calls",
            pnr_via_strided < pnr_default,
            f"via {pnr_via_strided:.4f} vs default {pnr_default:.4f}",
        ),
    ]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "digest": inputs.digest,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": {
            "setup_s": median(setups),
            "calls_per_s": median(rates),
            "cpu_us_per_call": 1e6 * median(cpus),
            "latency_p50_ms": 1e3 * median(p50s),
            "slo_ok_frac": in_slo / attempted,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_kb / 1024.0,
            "pnr_rtt": pnr_via,
        },
        "layers": {},
        "info": {
            "tail": {"latency_p95_ms": 1e3 * percentile(scaled, 95)},
            "n_slices": n_slices,
            "slice_calls": spec.slice_calls,
            "speed_factor_per_segment": factors,
            "speed_factor": median(factors),
            "raw": {
                "setup_s": median(setups_raw),
                "calls_per_s": median(raw["rate"]),
                "cpu_us_per_call": 1e6 * median(raw["cpu"]),
                "latency_p50_ms": 1e3 * median(raw["p50"]),
                "latency_p95_ms": 1e3 * percentile(raw_turnaround, 95),
            },
            "fail_frac": failed / attempted,
            "pnr_default": pnr_default,
            "outcome_digest_prefix": first,
        },
    }
