"""The traced run: the same calls through the same public functions, in
the order the server (or ``replay``) calls them, each call wrapped in a
span opened from here.

End-to-end numbers are taken with tracing off; this pass runs afterwards
(``--trace 1``), in process, with no socket and no event-loop hand-offs.
What it yields is each layer's *self time* per call.  For
``wire_unloaded`` the blocking-path self times plus ``loop.residual_us``
equal the end-to-end ``latency_p50_ms`` by construction: the residual is
what the socket, the event loop and the scheduler cost.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from calibrate import kernel_speed, speed_factor
from tracing import Tracer, layer_budget, write_jsonl
from wire import JITTER_MS, LOSS_RATE
from workloads import T_MEASURE_HOURS, T_WARM_HOURS, ReplayInputs, WireInputs

__all__ = ["trace_wire", "trace_replay", "WIRE_TRACED_CALLS", "REPLAY_TRACED_CALLS", "OFF_PATH"]

WIRE_TRACED_CALLS = 5000
REPLAY_TRACED_CALLS = 20000
#: Wire spans *not* on the chain a closed-loop request waits for: the
#: client encodes its measurement before the next request's clock starts.
#: (The server-side handling of that measurement *is* on the chain -- it
#: sits in the socket ahead of the next request.)
OFF_PATH = frozenset({"protocol.encode_measurement"})
#: Calibration bursts spread through a traced pass (between calls, outside
#: every span); the budget is scaled by their mean (see ``calibrate.py``).
_N_CALIBRATIONS = 5


async def _trace_wire(
    inputs: WireInputs, store_dir: Path | None, n_traced: int
) -> tuple[Tracer, int, float]:
    from repro import Call
    from repro.core import ViaConfig, ViaPolicy
    from repro.deployment import (
        AdmissionConfig,
        AdmissionController,
        AssignMessage,
        MeasurementMessage,
        RequestMessage,
        ShedMessage,
        decode_message,
        decode_option,
        encode_message,
        encode_option,
    )

    try:  # not re-exported by the package; the pass survives without it
        from repro.deployment.protocol import read_wire_line
    except ImportError:
        read_wire_line = None

    spec = inputs.spec
    policy = ViaPolicy(ViaConfig(seed=inputs.policy_seed), name="controller")
    now = [0.0]
    admission = AdmissionController(
        AdmissionConfig(**spec.admission) if spec.admission else None,
        clock=lambda: now[0],
    )
    store = None
    if store_dir is not None:
        from repro.store import Store, StoreConfig

        store = Store(store_dir, StoreConfig(fsync="batch"))
    reader = asyncio.StreamReader(limit=1 << 17)
    cache: dict[tuple[int, int], dict] = {}
    menu_wire = inputs.menu_wire
    option_index = inputs.option_index

    if spec.loop == "open":
        # The arrival instants the admission clock is walked through.
        n_warm = len(inputs.due[0])
        due, t = [], 0.0
        for offsets, horizon in zip(
            inputs.due, [spec.warm_seconds] + [0.0] * (len(inputs.due) - 1)
        ):
            due.extend(t + d for d in offsets)
            t = due[-1] if not horizon else horizon
    else:
        n_warm = spec.warm_calls
        due = None
    tracer = Tracer()
    span = tracer.span

    async def server_read(frame: bytes) -> bytes:
        if read_wire_line is None:
            return frame
        reader.feed_data(frame)
        with span("protocol.read_wire_line"):
            return await read_wire_line(reader)

    n_total = n_warm + n_traced
    call_id = 0
    speeds: list[float] = []
    every = max(1, n_traced // _N_CALIBRATIONS)
    try:
        for i in range(n_total):
            if i >= n_warm and (i - n_warm) % every == 0:
                speeds.append(kernel_speed())
            j = i % len(inputs.src)
            src, dst = inputs.src[j], inputs.dst[j]
            if due is not None:
                now[0] = due[i % len(due)] + (i // len(due)) * due[-1]
            if i < n_warm:
                # Warm-up: build the history the measured window starts
                # with; same policy calls, no spans.
                call_id += 1
                call = Call(call_id, T_WARM_HOURS, src, dst, "perf", "perf", src, dst)
                if admission.decide(0).admitted:
                    choice = policy.assign(call, inputs.menu)
                    cache[(src, dst)] = encode_option(choice)
                    idx = option_index[(choice.kind.value, choice.ingress, choice.egress)]
                else:
                    idx = 0
                call_id += 1
                policy.observe(
                    Call(call_id, T_WARM_HOURS, src, dst, "perf", "perf", src, dst),
                    inputs.menu[idx],
                    _metrics(inputs.rtt_ms(j, src, dst, idx)),
                )
                continue
            t_hours = T_MEASURE_HOURS
            tracer.trace_id = i - n_warm + 1
            with span("call"):
                # -- client: request out ------------------------------------
                with span("protocol.encode_request"):
                    frame = encode_message(
                        RequestMessage(src, dst, t_hours, menu_wire, corr_id=tracer.trace_id)
                    )
                # -- server: read, decode, admit ----------------------------
                line = await server_read(frame)
                with span("protocol.decode_request"):
                    request = decode_message(line)
                with span("admission.decide"):
                    decision = admission.decide(0)
                reply = None
                if decision.admitted:
                    if store is not None:
                        with span("store.log_request"):
                            store.log_request(src, dst, t_hours, request.options)
                    call_id += 1
                    call = Call(call_id, t_hours, src, dst, "perf", "perf", src, dst)
                    with span("protocol.decode_options"):
                        options = [decode_option(o) for o in request.options]
                    with span("policy.assign"):
                        choice = policy.assign(call, options)
                    with span("protocol.encode_option"):
                        encoded = encode_option(choice)
                    cache[(src, dst)] = encoded
                    reply = AssignMessage(option=encoded, corr_id=request.corr_id)
                elif decision.degraded and cache.get((src, dst)) in request.options:
                    admission.count_degraded()
                    reply = AssignMessage(option=cache[(src, dst)], corr_id=request.corr_id)
                else:
                    if decision.degraded:
                        admission.count_shed(f"{decision.reason}_no_cache")
                    reply = ShedMessage(reason=decision.reason or "overload", corr_id=request.corr_id)
                with span("protocol.encode_reply"):
                    frame = encode_message(reply)
                # -- client: reply in, measurement out -----------------------
                with span("protocol.decode_reply"):
                    answer = decode_message(frame)
                if isinstance(answer, AssignMessage):
                    o = answer.option
                    idx = option_index[(o["kind"], o.get("ingress"), o.get("egress"))]
                else:
                    idx = 0
                rtt = inputs.rtt_ms(j, src, dst, idx)
                with span("protocol.encode_measurement"):
                    frame = encode_message(
                        MeasurementMessage(
                            src, dst, t_hours, menu_wire[idx], rtt, LOSS_RATE, JITTER_MS
                        )
                    )
                # -- server: measurement in ----------------------------------
                line = await server_read(frame)
                with span("protocol.decode_measurement"):
                    m = decode_message(line)
                if store is not None:
                    with span("store.log_measurement"):
                        store.log_measurement(
                            m.src_id, m.dst_id, m.t_hours, m.option,
                            m.rtt_ms, m.loss_rate, m.jitter_ms,
                            src_site="perf", dst_site="perf",
                        )
                call_id += 1
                call = Call(call_id, t_hours, src, dst, "perf", "perf", src, dst)
                with span("protocol.decode_option"):
                    option = decode_option(m.option)
                with span("policy.observe"):
                    policy.observe(call, option, m.metrics())
    finally:
        if store is not None:
            store.close()
    speeds.append(kernel_speed())
    return tracer, n_traced, speed_factor(*speeds)


def _metrics(rtt_ms: float):
    from repro.netmodel import PathMetrics

    return PathMetrics(rtt_ms=rtt_ms, loss_rate=LOSS_RATE, jitter_ms=JITTER_MS)


def trace_wire(inputs: WireInputs, out_dir: Path, n_traced: int = WIRE_TRACED_CALLS) -> dict:
    """Trace one wire workload; writes ``trace_<workload>.jsonl``."""
    import shutil

    store_dir = out_dir / f"tmp-trace-{inputs.spec.name}" if inputs.spec.durable else None
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
        store_dir.mkdir(parents=True)
    try:
        tracer, n_calls, factor = asyncio.run(_trace_wire(inputs, store_dir, n_traced))
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    return _finish(tracer, n_calls, factor, out_dir / f"trace_{inputs.spec.name}.jsonl")


def trace_replay(
    inputs: ReplayInputs, policy, out_dir: Path, n_traced: int = REPLAY_TRACED_CALLS
) -> dict:
    """Trace a prefix of a replay workload the way ``replay()`` walks it."""
    import numpy as np

    world, spec = inputs.world, inputs.spec
    calls = inputs.trace.calls[:n_traced]
    rng = np.random.default_rng(inputs.outcome_seed)
    tracer = Tracer()
    span = tracer.span
    has_outages = bool(inputs.outages)
    last_down = None
    step = spec.batch_calls
    speeds: list[float] = []
    every = max(step, len(calls) // _N_CALIBRATIONS // step * step)
    for b, i0 in enumerate(range(0, len(calls), step)):
        if i0 % every == 0:
            speeds.append(kernel_speed())
        chunk = calls[i0 : i0 + step]
        if has_outages:
            down = world.relays_down_at(chunk[0].t_hours)
            if down != last_down:
                policy.set_down_relays(down)
                last_down = down
        tracer.trace_id = chunk[0].call_id if step == 1 else b
        with span("call" if step == 1 else "batch"):
            options_per_call = []
            for call in chunk:
                with span("netmodel.options_for_pair"):
                    options = world.options_for_pair(call.src_asn, call.dst_asn)
                if call.direct_blocked:
                    options = [o for o in options if o.is_relayed]
                options_per_call.append(options)
            if step == 1:
                with span("policy.assign"):
                    choices = [policy.assign(chunk[0], options_per_call[0])]
            else:
                with span("policy.assign_many"):
                    choices = policy.assign_many(chunk, options_per_call)
            rows = []
            for call, option in zip(chunk, choices):
                with span("netmodel.sample_call"):
                    rows.append(
                        world.sample_call(
                            call.src_asn, call.dst_asn, option, call.t_hours, rng,
                            src_wireless=call.src_wireless, dst_wireless=call.dst_wireless,
                            src_prefix=call.src_prefix, dst_prefix=call.dst_prefix,
                        )
                    )
            if step == 1:
                with span("policy.observe"):
                    policy.observe(chunk[0], choices[0], rows[0])
            else:
                with span("policy.observe_many"):
                    policy.observe_many(chunk, choices, rows)
    speeds.append(kernel_speed())
    return _finish(tracer, len(calls), speed_factor(*speeds), out_dir / f"trace_{spec.name}.jsonl")


def _finish(tracer: Tracer, n_calls: int, factor: float, path: Path) -> dict:
    """Write the spans as recorded; budget the self times at reference speed."""
    spans = tracer.spans()
    write_jsonl(path, spans)
    budget = layer_budget(spans, n_calls)
    return {
        "n_calls": n_calls,
        "n_spans": len(spans),
        "path": str(path),
        "speed_factor": factor,
        "by_name": {k: v * factor for k, v in budget["by_name"].items()},
        "by_layer": {k: v * factor for k, v in budget["by_layer"].items()},
    }
