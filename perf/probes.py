"""Per-layer probes: each layer's public functions, timed from outside.

Every probe is isolated.  Later simplicity PRs may delete or move what a
probe touches and may not edit this directory, so a probe that cannot run
(``ImportError``, ``AttributeError``, ``TypeError`` -- or anything else)
yields ``None`` for its metrics plus a printed warning, and never fails
an end-to-end run.  Probes import only names the packages export, with
two stated exceptions (``repro.deployment.protocol.read_wire_line`` and
``repro.Call``), each confined to its own probe.

Probes are workload-independent microbenchmarks; the numbers that depend
on a workload's traffic come from ``wire.py`` / ``traced.py`` instead.
"""

from __future__ import annotations

import asyncio
import re
import shutil
import sys
from pathlib import Path
from time import perf_counter

from calibrate import kernel_speed, speed_factor
from stats import median, percentile

__all__ = ["run_probes", "PROBE_METRICS"]

_N_BATCHES = 5
#: Seconds one timing batch runs; ``run_probes(scale=...)`` shrinks it for
#: smoke runs.
_batch_s = [0.008]


def _time_us(fn, *, max_iters: int = 200_000) -> float:
    """Median over batches of the per-call wall time of ``fn()``, in us."""
    batch_s = _batch_s[0]
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= batch_s / 4 or n >= max_iters:
            break
        n *= 4
    n = max(1, min(max_iters, int(n * batch_s / max(elapsed, 1e-9))))
    samples = []
    for _ in range(_N_BATCHES):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return 1e6 * median(samples)


def _menu_wire(n_bounce: int, n_transit: int):
    from repro.deployment import encode_option
    from workloads import _menu

    menu = _menu(n_bounce, n_transit)
    return menu, [encode_option(o) for o in menu]


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


def probe_protocol(ctx) -> dict:
    from repro.deployment import (
        AssignMessage,
        MeasurementMessage,
        RequestMessage,
        decode_message,
        decode_option,
        encode_message,
    )

    _, wire21 = _menu_wire(16, 4)
    _, wire3 = _menu_wire(2, 0)
    request = RequestMessage(17, 42, 36.0, wire21, corr_id=123456)
    small = RequestMessage(17, 42, 36.0, wire3, corr_id=123456)
    assign = AssignMessage(option=wire21[5], corr_id=123456)
    measurement = MeasurementMessage(17, 42, 36.0, wire21[5], 187.25, 0.002, 3.0)
    frames = {k: encode_message(m) for k, m in
              (("request", request), ("small", small), ("assign", assign), ("measurement", measurement))}
    option = wire21[-1]
    return {
        "protocol.encode_request_us": _time_us(lambda: encode_message(request)),
        "protocol.decode_request_us": _time_us(lambda: decode_message(frames["request"])),
        "protocol.encode_assign_us": _time_us(lambda: encode_message(assign)),
        "protocol.decode_assign_us": _time_us(lambda: decode_message(frames["assign"])),
        "protocol.encode_measurement_us": _time_us(lambda: encode_message(measurement)),
        "protocol.decode_measurement_us": _time_us(lambda: decode_message(frames["measurement"])),
        "protocol.decode_option_us": _time_us(lambda: decode_option(option)),
        "protocol.encode_request_small_us": _time_us(lambda: encode_message(small)),
        "protocol.decode_request_small_us": _time_us(lambda: decode_message(frames["small"])),
        "protocol.request_bytes": float(len(frames["request"])),
        "protocol.assign_bytes": float(len(frames["assign"])),
        "protocol.measurement_bytes": float(len(frames["measurement"])),
    }


def probe_read_wire_line(ctx) -> dict:
    from repro.deployment import RequestMessage, encode_message
    from repro.deployment.protocol import read_wire_line

    _, wire21 = _menu_wire(16, 4)
    frame = encode_message(RequestMessage(17, 42, 36.0, wire21, corr_id=1))
    n = 2000

    async def run() -> float:
        samples = []
        for _ in range(_N_BATCHES):
            reader = asyncio.StreamReader(limit=1 << 17)
            reader.feed_data(frame * n)
            t0 = perf_counter()
            for _ in range(n):
                await read_wire_line(reader)
            samples.append((perf_counter() - t0) / n)
        return 1e6 * median(samples)

    return {"protocol.read_wire_line_us": asyncio.run(run())}


# ----------------------------------------------------------------------
# client (the repo's own client classes, depth 1, controller in process)
# ----------------------------------------------------------------------


def _client_rtt(protocol: int) -> float:
    from repro.core import ViaConfig
    from repro.deployment import TestbedClient, ViaController

    menu, _ = _menu_wire(16, 4)

    async def run() -> float:
        async with ViaController(ViaConfig(seed=1)) as controller:
            client = TestbedClient(1, "perf", "127.0.0.1", controller.port, protocol=protocol)
            await client.connect()
            try:
                samples = []
                for i in range(400):
                    t0 = perf_counter()
                    await client.request_assignment(2 + i % 8, menu, 12.0)
                    samples.append(perf_counter() - t0)
                return 1e6 * percentile(samples[100:], 50)
            finally:
                await client.close()

    return asyncio.run(run())


def probe_client_v2(ctx) -> dict:
    return {"client.rtt_v2_p50_us": _client_rtt(2)}


def probe_client_v1(ctx) -> dict:
    return {"client.rtt_v1_p50_us": _client_rtt(1)}


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------


def probe_admission(ctx) -> dict:
    from repro.deployment import AdmissionConfig, AdmissionController

    now = [0.0]

    def clock() -> float:
        now[0] += 1e-4
        return now[0]

    controller = AdmissionController(
        AdmissionConfig(rate=1200.0, burst=256.0), clock=clock
    )
    return {"admission.decide_us": _time_us(lambda: controller.decide(3))}


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------


def _trained_policy(config, n_train: int = 6000):
    """A ViaPolicy with one day of history on the wire workloads' traffic."""
    from repro import Call
    from repro.core import ViaPolicy
    from repro.netmodel import PathMetrics
    from workloads import wire_inputs

    inputs = wire_inputs("wire_pipelined", 0, 1.0)
    policy = ViaPolicy(config, name="probe")
    menu = inputs.menu
    index = inputs.option_index
    for i in range(n_train):
        src, dst = inputs.src[i], inputs.dst[i]
        call = Call(i + 1, 12.0, src, dst, "perf", "perf", src, dst)
        choice = policy.assign(call, menu)
        idx = index[(choice.kind.value, choice.ingress, choice.egress)]
        policy.observe(call, choice, PathMetrics(inputs.rtt_ms(i, src, dst, idx), 0.002, 3.0))
    calls = [
        Call(n_train + i + 1, 36.0, inputs.src[n_train + i], inputs.dst[n_train + i],
             "perf", "perf", inputs.src[n_train + i], inputs.dst[n_train + i])
        for i in range(2048)
    ]
    for call in calls:  # first touch of each pair builds its top-k state
        policy.assign(call, menu)
    metrics = [PathMetrics(200.0 + (i % 50), 0.002, 3.0) for i in range(len(calls))]
    return policy, calls, menu, metrics


def _cycle(n_items: int, step: int):
    state = [0]

    def nxt() -> int:
        i = state[0]
        state[0] = (i + step) % (n_items - step + 1) if n_items > step else 0
        return i

    return nxt


def probe_policy(ctx) -> dict:
    from repro.core import ViaConfig

    policy, calls, menu, metrics = _trained_policy(ViaConfig(seed=1))
    out = {}
    nxt = _cycle(len(calls), 1)
    out["policy.assign_us_b1"] = _time_us(lambda: policy.assign(calls[nxt()], menu))
    for size in (16, 256):
        menus = [menu] * size
        nxt_b = _cycle(len(calls), size)

        def many(size=size, menus=menus, nxt_b=nxt_b):
            i = nxt_b()
            policy.assign_many(calls[i : i + size], menus)

        out[f"policy.assign_many_us_b{size}"] = _time_us(many) / size
    choice = menu[3]
    nxt_o = _cycle(len(calls), 1)

    def observe():
        i = nxt_o()
        policy.observe(calls[i], choice, metrics[i])

    out["policy.observe_us_b1"] = _time_us(observe)
    choices = [choice] * 256
    nxt_m = _cycle(len(calls), 256)

    def observe_many():
        i = nxt_m()
        policy.observe_many(calls[i : i + 256], choices, metrics[i : i + 256])

    out["policy.observe_many_us_b256"] = _time_us(observe_many) / 256
    t0 = perf_counter()
    policy.refresh(60.0)
    out["policy.refresh_ms"] = 1e3 * (perf_counter() - t0)
    return out


def probe_policy_gated(ctx) -> dict:
    from repro.core import ViaConfig

    policy, calls, menu, _ = _trained_policy(
        ViaConfig(seed=1, budget=0.3, per_relay_cap=0.15), n_train=3000
    )
    nxt = _cycle(len(calls), 1)
    return {"policy.assign_gated_us_b1": _time_us(lambda: policy.assign(calls[nxt()], menu))}


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


def _fresh_dir(ctx, name: str) -> Path:
    path = ctx["tmp"] / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe_store_append(ctx) -> dict:
    from repro.store import WriteAheadLog

    _, wire21 = _menu_wire(16, 4)
    record = {
        "kind": "measurement", "src_id": 17, "dst_id": 42, "t_hours": 36.0,
        "option": wire21[5], "rtt_ms": 187.25, "loss_rate": 0.002, "jitter_ms": 3.0,
    }
    out = {}
    for mode in ("off", "batch", "always"):
        wal = WriteAheadLog(_fresh_dir(ctx, f"wal-{mode}"), fsync=mode)
        try:
            # ``always`` pays one fsync per append; bound its iterations.
            out[f"store.append_us_{mode}"] = _time_us(
                lambda: wal.append(record), max_iters=200 if mode == "always" else 200_000
            )
        finally:
            wal.close()
    return out


def probe_store_log(ctx) -> dict:
    from repro.store import Store, StoreConfig

    _, wire21 = _menu_wire(16, 4)
    store = Store(_fresh_dir(ctx, "store-log"), StoreConfig(fsync="batch"))
    try:
        return {
            "store.log_request_us": _time_us(
                lambda: store.log_request(17, 42, 36.0, wire21)
            ),
            "store.log_measurement_us": _time_us(
                lambda: store.log_measurement(17, 42, 36.0, wire21[5], 187.25, 0.002, 3.0)
            ),
        }
    finally:
        store.close()


def probe_store_snapshot(ctx) -> dict:
    from repro.core import ViaConfig
    from repro.deployment import ViaController
    from repro.store import Store, StoreConfig
    from workloads import wire_inputs

    inputs = wire_inputs("wire_pipelined", 0, 1.0)
    store = Store(_fresh_dir(ctx, "store-snap"), StoreConfig(fsync="batch"))
    controller = ViaController(ViaConfig(seed=1))  # never started: state only
    try:
        for i in range(3000):
            src, dst = inputs.src[i], inputs.dst[i]
            store.log_request(src, dst, 12.0, inputs.menu_wire)
            controller.apply_record(
                {"kind": "request", "src_id": src, "dst_id": dst, "t_hours": 12.0,
                 "options": inputs.menu_wire}
            )
            record = {
                "kind": "measurement", "src_id": src, "dst_id": dst, "t_hours": 12.0,
                "option": inputs.menu_wire[i % len(inputs.menu_wire)],
                "rtt_ms": 200.0 + i % 40, "loss_rate": 0.002, "jitter_ms": 3.0,
            }
            store.log_measurement(
                src, dst, 12.0, record["option"], record["rtt_ms"], 0.002, 3.0
            )
            controller.apply_record(record)
        t0 = perf_counter()
        store.snapshot(controller)
        return {"store.snapshot_ms": 1e3 * (perf_counter() - t0)}
    finally:
        store.close()


# ----------------------------------------------------------------------
# netmodel / workload
# ----------------------------------------------------------------------


def probe_netmodel(ctx) -> dict:
    import numpy as np

    from repro.netmodel import TopologyConfig, WorldConfig, build_world
    from repro.workload import WorkloadConfig, generate_trace
    from workloads import N_COUNTRIES, N_DAYS, N_RELAYS, N_TRACE_PAIRS

    n_calls = 20_000
    t0 = perf_counter()
    world = build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=N_COUNTRIES, n_relays=N_RELAYS), n_days=N_DAYS
        )
    )
    t1 = perf_counter()
    trace = generate_trace(
        world.topology, WorkloadConfig(n_calls=n_calls, n_pairs=N_TRACE_PAIRS), n_days=N_DAYS
    )
    t2 = perf_counter()
    calls = trace.calls[:4000]
    options = [world.options_for_pair(c.src_asn, c.dst_asn) for c in calls]
    rng = np.random.default_rng(1)
    for c, o in zip(calls, options):  # first touch builds the lazy segments
        world.sample_call(c.src_asn, c.dst_asn, o[-1], c.t_hours, rng)
    nxt = _cycle(len(calls), 1)

    def sample():
        i = nxt()
        c = calls[i]
        world.sample_call(
            c.src_asn, c.dst_asn, options[i][-1], c.t_hours, rng,
            src_wireless=c.src_wireless, dst_wireless=c.dst_wireless,
            src_prefix=c.src_prefix, dst_prefix=c.dst_prefix,
        )

    nxt_o = _cycle(len(calls), 1)

    def lookup():
        c = calls[nxt_o()]
        world.options_for_pair(c.src_asn, c.dst_asn)

    return {
        "netmodel.build_world_s": t1 - t0,
        "workload.generate_trace_s": t2 - t1,
        "netmodel.sample_call_us": _time_us(sample),
        "netmodel.options_for_pair_us": _time_us(lookup),
    }


def probe_span_cost(ctx) -> dict:
    from tracing import span_cost_us

    return {"trace.span_cost_us": span_cost_us()}


#: probe -> the metrics it reports (``None`` for each when it cannot run).
PROBES: list[tuple] = [
    (probe_protocol, (
        "protocol.encode_request_us", "protocol.decode_request_us",
        "protocol.encode_assign_us", "protocol.decode_assign_us",
        "protocol.encode_measurement_us", "protocol.decode_measurement_us",
        "protocol.decode_option_us", "protocol.encode_request_small_us",
        "protocol.decode_request_small_us", "protocol.request_bytes",
        "protocol.assign_bytes", "protocol.measurement_bytes",
    )),
    (probe_read_wire_line, ("protocol.read_wire_line_us",)),
    (probe_client_v2, ("client.rtt_v2_p50_us",)),
    (probe_client_v1, ("client.rtt_v1_p50_us",)),
    (probe_admission, ("admission.decide_us",)),
    (probe_policy, (
        "policy.assign_us_b1", "policy.assign_many_us_b16", "policy.assign_many_us_b256",
        "policy.observe_us_b1", "policy.observe_many_us_b256", "policy.refresh_ms",
    )),
    (probe_policy_gated, ("policy.assign_gated_us_b1",)),
    (probe_store_append, (
        "store.append_us_off", "store.append_us_batch", "store.append_us_always",
    )),
    (probe_store_log, ("store.log_request_us", "store.log_measurement_us")),
    (probe_store_snapshot, ("store.snapshot_ms",)),
    (probe_netmodel, (
        "netmodel.build_world_s", "workload.generate_trace_s",
        "netmodel.sample_call_us", "netmodel.options_for_pair_us",
    )),
    (probe_span_cost, ("trace.span_cost_us",)),
]
#: Metrics that are times (``..._us``, ``..._ms``, ``..._s``, ``..._us_b16``).
_IS_TIME = re.compile(r"_(us|ms|s)(_b\d+)?$")
PROBE_METRICS: tuple[str, ...] = tuple(name for _, names in PROBES for name in names)


def run_probes(out_dir: Path, scale: float = 1.0) -> tuple[dict, list[str]]:
    """Run every probe; returns ({metric: value or None}, warnings).

    ``scale`` < 1 shortens every timing batch (smoke runs)."""
    ctx = {"tmp": out_dir / "tmp-probes"}
    _batch_s[0] = 0.008 * max(0.05, min(1.0, scale))
    values: dict = {}
    warnings: list[str] = []
    try:
        for probe, names in PROBES:
            speed_before = kernel_speed()
            try:
                got = probe(ctx)
            except Exception as exc:  # noqa: BLE001 - a probe never fails a run
                warnings.append(f"{probe.__name__}: {type(exc).__name__}: {exc}")
                got = {}
            factor = speed_factor(speed_before, kernel_speed())
            for name in names:
                value = got.get(name)
                if value is not None and _IS_TIME.search(name):
                    value *= factor  # times are reported at reference speed
                values[name] = value
    finally:
        shutil.rmtree(ctx["tmp"], ignore_errors=True)
    for warning in warnings:
        print(f"WARNING: probe could not run -> null: {warning}", file=sys.stderr)
    return values, warnings
