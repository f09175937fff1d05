"""Wire workloads: one controller child, one single-threaded load generator.

The generator speaks protocol v2 with the repo's public codec
(``encode_message`` / ``decode_message`` and the message dataclasses) over
plain asyncio streams, on at most two connections.  It does not go
through ``AsyncViaClient``: the public client API cannot report a
measurement on behalf of a logical ``src_id``, cannot stamp a request
with its *due* time, and hides which reply type came back -- and the
client classes are on the roadmap's refactor list, while this file may
not be edited by those PRs.  The client classes are measured separately
by the ``client.*`` probes.

Everything here is outside the program: layers are observed through the
timings the generator takes, ``getrusage`` of both processes, and the
public wire scrape (``metrics_request`` / ``stats_request``).
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

from calibrate import kernel_speed, speed_factor
from stats import median, percentile
from workloads import (
    OPEN_LEAD_IN_S,
    T_MEASURE_HOURS,
    T_WARM_HOURS,
    WireInputs,
    wire_inputs,
)

__all__ = ["run_wire", "parse_exposition", "OpenLoopClock"]

HERE = Path(__file__).resolve().parent
N_SETUPS = 3
MIN_TAIL_SAMPLES = 1000
#: The open loop busy-yields this close to the next due arrival.
SPIN_WINDOW_S = 0.002
#: How long the open loop waits for stragglers before a segment closes.
SEGMENT_DRAIN_S = 0.15
DRAIN_TIMEOUT_S = 5.0
#: Constant secondary metrics on every measurement (the policy optimises RTT).
LOSS_RATE = 0.002
JITTER_MS = 3.0

ASSIGN, SHED, FAILED = 0, 1, 2


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text -> {series: value}; series keep their label string."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


class OpenLoopClock:
    """Due-time bookkeeping of an open loop: which arrivals are due *now*,
    how late each one is sent, and the latency origin (the due instant,
    never the send instant -- a stalled generator must not hide the wait
    it imposed on the requests queued behind the stall)."""

    def __init__(self, due_offsets, t0: float) -> None:
        self.due = due_offsets
        self.t0 = t0
        self.next = 0
        self.lateness: list[float] = []

    def due_now(self, now: float) -> list[tuple[int, float]]:
        """Pop every arrival whose due instant is <= ``now``; returns
        (index, absolute due time) and records each one's lateness."""
        out = []
        due, t0 = self.due, self.t0
        while self.next < len(due) and t0 + due[self.next] <= now:
            t_due = t0 + due[self.next]
            self.lateness.append(now - t_due)
            out.append((self.next, t_due))
            self.next += 1
        return out

    def sleep_for(self, now: float) -> float | None:
        """Seconds until the next arrival is due; None when none remain."""
        if self.next >= len(self.due):
            return None
        return max(0.0, self.t0 + self.due[self.next] - now)


class ServerChild:
    """Handle on one ``server_child.py`` process."""

    def __init__(self, proc, ready: dict, log) -> None:
        self.proc = proc
        self.ready = ready
        self.port = int(ready["port"])
        self._log = log

    @classmethod
    async def spawn(cls, cfg: dict, log_path: Path) -> "ServerChild":
        log = open(log_path, "ab")
        try:
            proc = await asyncio.create_subprocess_exec(
                sys.executable,
                str(HERE / "server_child.py"),
                json.dumps(cfg),
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                stderr=log,
            )
        except BaseException:
            log.close()
            raise
        child = cls(proc, {"port": 0}, log)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), timeout=120.0)
            ready = json.loads(line) if line else {}
            if not ready.get("ready"):
                raise RuntimeError(f"controller child did not start: {line!r}")
        except BaseException:
            await child.kill()
            raise
        child.ready = ready
        child.port = int(ready["port"])
        return child

    async def command(self, word: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(word.encode("ascii") + b"\n")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(), timeout=timeout)
        if not line:
            raise RuntimeError(f"controller child died on {word!r}")
        return json.loads(line)

    async def finish(self, word: str) -> dict:
        """``stop`` or ``crash``: final report, then wait for the exit."""
        try:
            report = await self.command(word)
            await asyncio.wait_for(self.proc.wait(), timeout=60.0)
            return report
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        self._log.close()


class Conn:
    """One v2 connection: a writer plus a reply demultiplexer."""

    def __init__(self, reader, writer, gen: "Generator") -> None:
        self.reader = reader
        self.writer = writer
        self.gen = gen
        self.pending: dict[int, object] = {}
        self.task: asyncio.Task | None = None

    @classmethod
    async def open(cls, port: int, client_id: int, gen: "Generator") -> "Conn":
        from repro.deployment import (
            HelloAckMessage,
            HelloMessage,
            decode_message,
            encode_message,
        )

        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conn = cls(reader, writer, gen)
        writer.write(
            encode_message(HelloMessage(client_id=client_id, site="perf", protocol=2))
        )
        ack = decode_message(await asyncio.wait_for(reader.readline(), timeout=30.0))
        if not isinstance(ack, HelloAckMessage) or ack.protocol < 2:
            writer.close()
            raise RuntimeError(f"expected a v2 hello_ack, got {ack!r}")
        conn.task = asyncio.ensure_future(conn._read_loop())
        return conn

    async def _read_loop(self) -> None:
        from repro.deployment import ProtocolError, decode_message

        gen = self.gen
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError:
                    gen.n_protocol_errors += 1
                    continue
                callback = self.pending.pop(message.corr_id, None)
                if callback is None:
                    gen.n_protocol_errors += 1  # a reply nobody asked for
                else:
                    callback(message)
        except (ConnectionError, OSError):
            pass
        finally:
            # Whatever is still pending will never be answered; those
            # requests stay in ``gen.outstanding`` and count as failed.
            gen.n_transport_errors += len(self.pending)
            self.pending.clear()

    async def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            await asyncio.gather(self.task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Generator:
    """The load generator: closed-loop callers or an open-loop schedule."""

    def __init__(self, inputs: WireInputs) -> None:
        from repro.deployment import (
            AssignMessage,
            ErrorMessage,
            MeasurementMessage,
            RequestMessage,
            ShedMessage,
            encode_message,
        )

        self.inputs = inputs
        self.conns: list[Conn] = []
        self._encode = encode_message
        self._Request = RequestMessage
        self._Measurement = MeasurementMessage
        self._Assign = AssignMessage
        self._Shed = ShedMessage
        self._Error = ErrorMessage
        self._corr = 0
        self._cursor = 0
        self._budget: int | None = None
        self._stop = False
        self.t_hours = T_WARM_HOURS
        #: (t_ref, t_done, kind, rtt_ms, sent_to_best) per answered request.
        self.records: list[tuple] = []
        #: corr_id -> t_ref of requests not answered yet.
        self.outstanding: dict[int, float] = {}
        self.n_requests = 0
        self.n_measurements = 0
        self.n_assigns = 0
        self.n_sheds = 0
        self.n_error_replies = 0
        self.n_bad_options = 0
        self.n_protocol_errors = 0
        self.n_transport_errors = 0

    # -- one call ------------------------------------------------------

    def _send_request(self, conn: Conn, j: int, t_ref: float, callback) -> None:
        """Send draw ``j``; ``callback(reply)`` runs when its reply arrives.
        ``t_ref`` is the latency origin: the send (closed) or due (open) time."""
        inputs = self.inputs
        self._corr += 1
        corr = self._corr
        conn.pending[corr] = callback
        self.outstanding[corr] = t_ref
        conn.writer.write(
            self._encode(
                self._Request(
                    src_id=inputs.src[j],
                    dst_id=inputs.dst[j],
                    t_hours=self.t_hours,
                    options=inputs.menu_wire,
                    corr_id=corr,
                )
            )
        )
        self.n_requests += 1

    def _complete(self, conn: Conn, j: int, t_hours: float, message) -> None:
        """Validate a reply, place the call, report its measurement."""
        t_done = perf_counter()
        t_ref = self.outstanding.pop(message.corr_id)
        inputs = self.inputs
        kind = type(message)
        if kind is self._Assign:
            option = message.option
            try:
                idx = inputs.option_index[
                    (option["kind"], option.get("ingress"), option.get("egress"))
                ]
            except (KeyError, TypeError, AttributeError):
                self.n_bad_options += 1
                self.records.append((t_ref, t_done, FAILED, 0.0, False))
                return
            self.n_assigns += 1
            outcome = ASSIGN
        elif kind is self._Shed:
            self.n_sheds += 1
            outcome = SHED
            idx = 0  # the client-side default: the direct path
        else:
            if kind is self._Error:
                self.n_error_replies += 1
            else:
                self.n_protocol_errors += 1
            self.records.append((t_ref, t_done, FAILED, 0.0, False))
            return
        src, dst = inputs.src[j], inputs.dst[j]
        rtt = inputs.rtt_ms(j, src, dst, idx)
        conn.writer.write(
            self._encode(
                self._Measurement(
                    src_id=src,
                    dst_id=dst,
                    t_hours=t_hours,
                    option=inputs.menu_wire[idx],
                    rtt_ms=rtt,
                    loss_rate=LOSS_RATE,
                    jitter_ms=JITTER_MS,
                )
            )
        )
        self.n_measurements += 1
        self.records.append(
            (t_ref, t_done, outcome, rtt, outcome == ASSIGN and inputs.is_best(src, dst, idx))
        )

    # -- closed loop ---------------------------------------------------

    async def _caller(self, conn: Conn) -> None:
        loop = asyncio.get_running_loop()
        n = len(self.inputs.src)
        while not self._stop:
            if self._budget is not None:
                if self._budget <= 0:
                    return
                self._budget -= 1
            j = self._cursor % n
            self._cursor += 1
            future = loop.create_future()
            t_hours = self.t_hours
            self._send_request(conn, j, perf_counter(), future.set_result)
            self._complete(conn, j, t_hours, await future)

    async def run_closed(self, seconds: float | None, budget: int | None) -> float:
        """Run every caller for ``seconds``, or until ``budget`` calls ran;
        returns the instant the callers were told to stop."""
        self._stop = False
        self._budget = budget
        depth = self.inputs.spec.callers_per_conn
        tasks = [
            asyncio.ensure_future(self._caller(conn))
            for conn in self.conns
            for _ in range(depth)
        ]
        try:
            if seconds is not None:
                await asyncio.sleep(seconds)
                self._stop = True
            t_stop = perf_counter()
            # Callers still blocked after the drain timeout never got a
            # reply: their requests stay in ``outstanding`` and count as
            # timeouts.
            await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        return t_stop

    # -- open loop -----------------------------------------------------

    async def run_schedule(self, offsets, t0: float) -> OpenLoopClock:
        """Send one request per arrival in ``offsets`` (seconds from ``t0``)."""
        clock = OpenLoopClock(offsets, t0)
        conns = self.conns
        n = len(self.inputs.src)
        while True:
            now = perf_counter()
            for _i, t_due in clock.due_now(now):
                j = self._cursor % n
                conn = conns[self._cursor % len(conns)]
                self._cursor += 1
                self._send_request(
                    conn, j, t_due, partial(self._complete, conn, j, self.t_hours)
                )
            delay = clock.sleep_for(perf_counter())
            if delay is None:
                return clock
            # asyncio timers round up to a millisecond, and the mean gap at
            # 2400/s is 0.4 ms: sleeping would release arrivals in 1 kHz
            # batches and make "latency from due" mostly timer lateness.
            # Close to the next arrival, yield to the loop without a timer.
            await asyncio.sleep(delay - SPIN_WINDOW_S if delay > SPIN_WINDOW_S else 0)

    async def drain(self, timeout: float) -> None:
        deadline = perf_counter() + timeout
        while self.outstanding and perf_counter() < deadline:
            await asyncio.sleep(0.005)

    # -- control plane (off the call path) -----------------------------

    async def rpc(self, message, timeout: float = 30.0):
        from dataclasses import replace

        conn = self.conns[0]
        self._corr += 1
        future = asyncio.get_running_loop().create_future()
        conn.pending[self._corr] = future.set_result
        conn.writer.write(self._encode(replace(message, corr_id=self._corr)))
        return await asyncio.wait_for(future, timeout=timeout)

    async def scrape(self) -> dict[str, float]:
        from repro.deployment import MetricsRequestMessage

        return parse_exposition((await self.rpc(MetricsRequestMessage())).text)

    async def stats(self):
        from repro.deployment import StatsRequestMessage

        return await self.rpc(StatsRequestMessage())


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _pin(share_core: bool) -> int | None:
    """Pin this process to one core; return the core the child is pinned to
    (another one, or the same when the workload shares a core)."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return None
        own = cpus[1] if share_core else cpus[0]
        os.sched_setaffinity(0, {own})
        return cpus[1]
    except (AttributeError, OSError):
        return None


def _delta(after: dict, before: dict, series: str) -> float:
    return after.get(series, 0.0) - before.get(series, 0.0)


def _mean_us(after: dict, before: dict, stem: str, labels: str = "") -> float:
    count = _delta(after, before, f"{stem}_count{labels}")
    total = _delta(after, before, f"{stem}_sum{labels}")
    return 1e6 * total / count if count else 0.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


async def _calibrate(child: ServerChild, spec) -> tuple[float, float]:
    """(generator, controller) kernel speeds around a segment.

    One process at a time -- bursts run together on the two vCPUs slow each
    other down.  The open loop's generator never sleeps while it paces, so
    there the controller's burst runs against a busy-yielding generator,
    the condition the segment itself ran under, and both factors are the
    controller's."""
    if spec.loop == "open":
        burst = asyncio.ensure_future(child.command("calibrate"))
        while not burst.done():
            await asyncio.sleep(0)
        speed = float(burst.result()["speed"])
        return speed, speed
    own = kernel_speed()
    return own, float((await child.command("calibrate"))["speed"])


@dataclass
class _Segment:
    """One measured slice of the window and the marks taken around it."""

    t_start: float = 0.0
    t_stop: float = 0.0
    gen_cpu: float = 0.0
    srv_cpu: float = 0.0
    served: float = 0.0  # open loop: admitted-and-served, from the server's tallies


@dataclass
class _Window:
    """Everything one run measured, before any statistics."""

    segments: list = field(default_factory=list)
    #: Calibration points; segment ``k`` lies between points ``k`` and ``k + 1``.
    points: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    scrape0: dict = field(default_factory=dict)
    scrape1: dict = field(default_factory=dict)
    stats0: object = None
    stats1: object = None
    #: WAL growth (bytes, calls) from the window's start to the snapshot.
    wal_bytes: int = 0
    wal_calls: int = 0
    n_timeouts: int = 0
    setups: list = field(default_factory=list)
    setups_raw: list = field(default_factory=list)
    peak_rss_kb: float = 0.0
    recover_s: float = 0.0
    recover_records: float = 0.0
    fingerprints: tuple | None = None
    pinned: bool = False


def _served(stats) -> float:
    return stats.n_requests - stats.n_shed - stats.n_degraded


async def _measure(
    gen: Generator, child: ServerChild, inputs: WireInputs, seconds: float,
    wal_dir: Path | None, window: _Window,
) -> None:
    """Warm up, then run the measured segments between calibration bursts."""
    spec = inputs.spec
    load_s = seconds / spec.n_segments
    if spec.loop == "closed":
        await gen.run_closed(None, spec.warm_calls)
    else:
        await gen.run_schedule(inputs.due[0], perf_counter())
        await gen.drain(SEGMENT_DRAIN_S)
    window.scrape0 = await gen.scrape()
    window.stats0 = await gen.stats()
    gen.t_hours = T_MEASURE_HOURS
    window.points.append(await _calibrate(child, spec))
    if wal_dir is not None:
        window.wal_bytes, window.wal_calls = -_dir_bytes(wal_dir), -gen.n_assigns
    for k in range(spec.n_segments):
        seg = _Segment()
        if wal_dir is not None and k == spec.n_segments - 1:
            window.wal_bytes += _dir_bytes(wal_dir)
            window.wal_calls += gen.n_assigns
            # Bound the WAL tail the restart replays to the last segment.
            await child.command("snapshot")
            window.points[-1] = await _calibrate(child, spec)
        if spec.loop == "closed":
            srv0 = (await child.command("rusage"))["cpu_s"]
            cpu0 = _cpu_s()
            seg.t_start = perf_counter()
            seg.t_stop = await gen.run_closed(load_s, None)
            seg.gen_cpu = _cpu_s() - cpu0
            seg.srv_cpu = (await child.command("rusage"))["cpu_s"] - srv0
        else:
            t_seg = perf_counter()
            schedule = asyncio.ensure_future(gen.run_schedule(inputs.due[k + 1], t_seg))
            try:
                await asyncio.sleep(OPEN_LEAD_IN_S)
                # Admitted-and-served needs the server's own tallies: a
                # degraded reply looks like an assign on the wire.
                served0 = _served(await gen.stats())
                srv0 = (await child.command("rusage"))["cpu_s"]
                cpu0 = _cpu_s()
                seg.t_start = perf_counter()
                clock = await schedule
                await asyncio.sleep(max(0.0, t_seg + OPEN_LEAD_IN_S + load_s - perf_counter()))
            finally:
                schedule.cancel()
                await asyncio.gather(schedule, return_exceptions=True)
            seg.t_stop = perf_counter()
            seg.gen_cpu = _cpu_s() - cpu0
            seg.srv_cpu = (await child.command("rusage"))["cpu_s"] - srv0
            seg.served = _served(await gen.stats()) - served0
            window.lateness.extend(clock.lateness)
            await gen.drain(SEGMENT_DRAIN_S)
        window.points.append(await _calibrate(child, spec))
        window.segments.append(seg)


async def _drive(
    inputs: WireInputs, gen: Generator, out_dir: Path, n_setups: int
) -> _Window:
    """Set up (several times), measure, and tear the controller down."""
    spec = inputs.spec
    window = _Window()
    child_cpu = _pin(spec.share_core)
    window.pinned = child_cpu is not None
    tmp_root = out_dir / f"tmp-{spec.name}-{os.getpid()}"
    log_path = out_dir / f"server_{spec.name}.log"

    def child_cfg(store_dir: Path | None, **extra) -> dict:
        return {
            "src": str(HERE.parent / "src"),
            "cpu": child_cpu,
            "policy_seed": inputs.policy_seed,
            "admission": spec.admission,
            "store_dir": str(store_dir) if store_dir is not None else None,
            "fsync": "batch",
            **extra,
        }

    child: ServerChild | None = None
    store_dir: Path | None = None
    try:
        for rep in range(n_setups):  # the last set-up is the one that is used
            store_dir = tmp_root / f"store-{rep}" if spec.durable else None
            speed_before = kernel_speed()
            t0 = perf_counter()
            if store_dir is not None:
                store_dir.mkdir(parents=True)
            child = await ServerChild.spawn(child_cfg(store_dir), log_path)
            gen.conns = [
                await Conn.open(child.port, k + 1, gen) for k in range(spec.n_conns)
            ]
            raw = perf_counter() - t0
            window.setups_raw.append(raw)
            window.setups.append(raw * speed_factor(speed_before, kernel_speed()))
            if rep < n_setups - 1:
                for conn in gen.conns:
                    await conn.close()
                await child.finish("stop")
                child = None

        wal_dir = store_dir / "wal" if store_dir is not None else None
        await _measure(gen, child, inputs, inputs.seconds, wal_dir, window)
        await gen.drain(DRAIN_TIMEOUT_S)
        window.n_timeouts = len(gen.outstanding)
        window.scrape1 = await gen.scrape()
        window.stats1 = await gen.stats()
        for conn in gen.conns:
            await conn.close()
        gen.conns = []

        if spec.durable:
            # Crash, restart on the same directory, compare fingerprints.
            final = await child.finish("crash")
            child = await ServerChild.spawn(
                child_cfg(store_dir, fingerprint_on_start=True), log_path
            )
            window.recover_s = float(child.ready["start_s"])
            window.recover_records = float(child.ready["n_replayed"])
            window.fingerprints = (final["fingerprint"], child.ready.get("fingerprint"))
            await child.finish("crash")
        else:
            final = await child.finish("stop")
        child = None
        window.peak_rss_kb = final["maxrss_kb"]
    finally:
        for conn in gen.conns:
            await conn.close()
        if child is not None:
            await child.kill()
        shutil.rmtree(tmp_root, ignore_errors=True)
    return window


def _checks(spec, gen: Generator, window: _Window) -> tuple[list, float]:
    """The client's lifetime tallies against the server's final scrape."""

    def count(series: str) -> float:
        return window.scrape1.get(series, 0.0)

    admit = count('via_admission_decisions_total{decision="admit"}')
    degrade = count('via_admission_decisions_total{decision="degrade"}')
    shed = count('via_admission_decisions_total{decision="shed"}')
    deadline = count('via_admission_sheds_total{reason="deadline"}')
    n_failed = gen.n_error_replies + gen.n_bad_options + window.n_timeouts
    # A deadline shed is counted twice by the server (admitted, then shed).
    gap = gen.n_requests - (admit - deadline) - degrade - shed - n_failed
    checks = [
        (
            "every reply named an offered option",
            gen.n_bad_options == 0,
            f"{gen.n_bad_options} replies outside the menu",
        ),
        (
            "client assigns == server admit - deadline sheds + degrade",
            gen.n_assigns == admit - deadline + degrade,
            f"client {gen.n_assigns} vs server {admit:.0f}-{deadline:.0f}+{degrade:.0f}",
        ),
        (
            "client sheds == server shed decisions",
            gen.n_sheds == shed,
            f"client {gen.n_sheds} vs server {shed:.0f}",
        ),
        (
            "via_controller_messages_total matches what was sent",
            count('via_controller_messages_total{type="request"}') == gen.n_requests
            and count('via_controller_messages_total{type="measurement"}')
            == gen.n_measurements
            and count('via_controller_messages_total{type="hello"}') == spec.n_conns,
            f"requests {gen.n_requests}, measurements {gen.n_measurements}",
        ),
        ("admission.conservation_gap == 0", gap == 0, f"gap {gap:.0f}"),
        (
            "no request was left unanswered",
            window.n_timeouts == 0 and gen.n_transport_errors == 0,
            f"{window.n_timeouts} timeouts, {gen.n_transport_errors} transport errors",
        ),
        (
            "no protocol or per-request errors",
            gen.n_protocol_errors == 0 and gen.n_error_replies == 0,
            f"{gen.n_protocol_errors} protocol, {gen.n_error_replies} error replies",
        ),
    ]
    if spec.loop == "closed":
        checks.append(("nothing shed outside wire_overload", gen.n_sheds == 0, ""))
    if window.fingerprints is not None:
        before, after = window.fingerprints
        checks.append(
            (
                "durable: fingerprint after recover equals the one before the crash",
                before == after,
                f"snapshot + {window.recover_records:.0f} WAL records "
                f"in {window.recover_s:.3f} s",
            )
        )
    return checks, gap


def _report(inputs: WireInputs, gen: Generator, window: _Window) -> dict:
    """Per-segment statistics, each at reference speed, then the medians."""
    from repro.analysis import DEFAULT_THRESHOLDS

    spec = inputs.spec
    closed = spec.loop == "closed"
    slo_s = spec.slo_ms / 1e3
    poor_rtt = DEFAULT_THRESHOLDS.rtt_ms
    # Closed loop: a call belongs to the segment it completed in.
    # Open loop: to the segment it was due in.
    when = 1 if closed else 0
    records = sorted(gen.records, key=lambda r: r[when])
    rates, p50s, cpus, gen_cpus, srv_cpus, n_samples, factors = ([] for _ in range(7))
    scaled: list[list[float]] = []
    raw = {"rate": [], "p50": [], "p95": [], "p99": [], "cpu": []}
    attempted = failed = ok_slo = placed = poor = sheds = 0
    quarter = quarter_best = 0
    cursor = 0
    for k, seg in enumerate(window.segments):
        # The two bursts next to the segment: averaging further out tracks
        # the machine worse (its regime moves within a second or two).
        f_gen = speed_factor(window.points[k][0], window.points[k + 1][0])
        f_srv = speed_factor(window.points[k][1], window.points[k + 1][1])
        f_wall = (f_gen + f_srv) / 2.0
        factors.append(f_wall)
        latencies: list[float] = []
        while cursor < len(records) and records[cursor][when] < seg.t_start:
            cursor += 1
        while cursor < len(records) and records[cursor][when] < seg.t_stop:
            t_ref, t_done, kind, rtt, best = records[cursor]
            cursor += 1
            attempted += 1
            if kind == FAILED:
                failed += 1
                continue
            latencies.append(t_done - t_ref)
            if kind == SHED:
                sheds += 1
                failed += closed  # nothing may shed outside the overload workload
            ok_slo += (t_done - t_ref) <= slo_s
            placed += 1
            poor += rtt >= poor_rtt
            if kind == ASSIGN and k >= spec.n_segments - spec.n_segments // 4:
                quarter += 1
                quarter_best += best
        done = len(latencies)
        n_samples.append(done)
        span = seg.t_stop - seg.t_start
        # Open loop: the rate is set by the token bucket's clock, not the CPU.
        raw["rate"].append((done if closed else seg.served) / span)
        rates.append(raw["rate"][-1] / (f_wall if closed else 1.0))
        scaled.append([t * f_wall for t in latencies])
        if done:
            raw["p50"].append(percentile(latencies, 50))
            raw["p95"].append(percentile(latencies, 95))
            raw["p99"].append(percentile(latencies, 99))
            p50s.append(raw["p50"][-1] * f_wall)
            # The open-loop generator busy-yields to pace sub-millisecond
            # arrivals: its CPU is the harness's, not a cost of a call.
            raw["cpu"].append((seg.srv_cpu + (seg.gen_cpu if closed else 0.0)) / done)
            gen_cpus.append(seg.gen_cpu * f_gen / done)
            srv_cpus.append(seg.srv_cpu * f_srv / done)
            cpus.append(srv_cpus[-1] + (gen_cpus[-1] if closed else 0.0))
    # The tail percentiles need >= 1000 samples (>= 10 beyond p99): adjacent
    # segments are pooled until the smallest pool holds that many; every
    # latency was scaled by its own segment's factor first.
    fewest = max(1, min((len(s) for s in scaled), default=1))
    per_pool = min(len(scaled), -(-MIN_TAIL_SAMPLES // fewest))
    pools = [
        [t for seg_lat in scaled[i : i + per_pool] for t in seg_lat]
        for i in range(0, len(scaled) - per_pool + 1, per_pool)
    ]
    p95s = [percentile(pool, 95) for pool in pools if pool]
    p99s = [percentile(pool, 99) for pool in pools if pool]
    lost = sum(
        any(seg.t_start <= t_ref < seg.t_stop for seg in window.segments)
        for t_ref in gen.outstanding.values()
    )
    attempted += lost
    failed += lost

    checks, gap = _checks(spec, gen, window)
    scrape0, scrape1 = window.scrape0, window.scrape1
    decisions = {
        d: _delta(scrape1, scrape0, f'via_admission_decisions_total{{decision="{d}"}}')
        for d in ("admit", "degrade", "shed")
    }
    n_decisions = max(1.0, sum(decisions.values()))
    duration = "via_controller_message_duration_seconds"
    f_all = median(factors)

    def med(values, scale=1.0):
        return scale * median(values) if values else None

    layers = {
        "client.cpu_us_per_call": med(gen_cpus, 1e6),
        "client.gen_late_p99_ms": 1e3 * percentile(window.lateness, 99) if window.lateness else 0.0,
        "client.latency_p95_ms": med(p95s, 1e3),
        "client.latency_p99_ms": med(p99s, 1e3),
        "aserver.cpu_us_per_call": med(srv_cpus, 1e6),
        "aserver.queue_wait_mean_us": f_all
        * _mean_us(scrape1, scrape0, "via_admission_queue_wait_seconds"),
        "admission.admitted_per_s": med(raw["rate"]) or 0.0,
        "admission.degraded_frac": decisions["degrade"] / n_decisions,
        "admission.shed_frac": decisions["shed"] / n_decisions,
        "admission.conservation_gap": gap,
        "controller.request_service_mean_us": f_all
        * _mean_us(scrape1, scrape0, duration, '{type="request"}'),
        "controller.measurement_service_mean_us": f_all
        * _mean_us(scrape1, scrape0, duration, '{type="measurement"}'),
        "controller.n_refreshes": float(window.stats1.n_refreshes),
        "policy.frac_best_last_quarter": quarter_best / quarter if quarter else 0.0,
        "store.wal_bytes_per_call": window.wal_bytes / max(1, window.wal_calls),
        "store.recover_s": window.recover_s * f_all,
        "store.recover_records_per_s": (
            window.recover_records / (window.recover_s * f_all) if window.recover_s else 0.0
        ),
    }
    return {
        "workload": spec.name,
        "seed": inputs.seed,
        "seconds": inputs.seconds,
        "digest": inputs.digest,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "end_to_end": {
            "setup_s": median(window.setups),
            "calls_per_s": med(rates),
            "cpu_us_per_call": med(cpus, 1e6),
            "latency_p50_ms": med(p50s, 1e3),
            "slo_ok_frac": ok_slo / attempted if attempted else None,
            "ok_frac": 1.0 - failed / attempted if attempted else None,
            "peak_rss_mb": window.peak_rss_kb / 1024.0,
            "pnr_rtt": poor / placed if placed else None,
        },
        "layers": layers,
        "info": {
            "tail": {"latency_p95_ms": med(p95s, 1e3), "latency_p99_ms": med(p99s, 1e3)},
            "latency_samples_per_segment": n_samples,
            "latency_samples_per_tail_pool": [len(pool) for pool in pools],
            "speed_factor": f_all,
            "speed_factor_per_segment": factors,
            "calibration_points": window.points,
            "raw_per_segment": raw,
            "raw": {
                "setup_s": median(window.setups_raw),
                "calls_per_s": med(raw["rate"]),
                "cpu_us_per_call": med(raw["cpu"], 1e6),
                "latency_p50_ms": med(raw["p50"], 1e3),
                "latency_p95_ms": med(raw["p95"], 1e3),
                "latency_p99_ms": med(raw["p99"], 1e3),
            },
            "sheds_in_window": sheds,
            "pinned": window.pinned,
            "fail_frac": failed / attempted if attempted else None,
        },
    }


def run_wire(name: str, seed: int, seconds: float, out_dir: Path, *, n_setups: int = N_SETUPS) -> dict:
    """Run wire workload ``name`` once; returns its result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = wire_inputs(name, seed, seconds)
    gen = Generator(inputs)
    window = asyncio.run(_drive(inputs, gen, out_dir, n_setups))
    return _report(inputs, gen, window)
