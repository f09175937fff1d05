"""The soak loop behind ``repro soak`` / ``make test-soak``.

One :func:`run_soak` call drives a durable controller (or a sharded
ring, when ``budget.n_shards >= 2``) through the *whole* operational
lifecycle, continuously, under a seed-derived chaos
:class:`~repro.deployment.faults.FaultPlan`:

* a seeded traffic workload (hello / request / measurement) whose call
  clock advances hours per tick -- time compression, so a sub-minute
  smoke run crosses days of predictor refreshes, WAL age rotations,
  relay outages and blackhole windows;
* store snapshots, standalone compactions, and **kill + recover cycles**
  on a schedule, with the full-controller fingerprint-equivalence
  contract (:func:`repro.verify.crashpoints.controller_fingerprint`)
  checked on every restore -- including restores deliberately raced
  against an in-flight compaction thread;
* shard kill/restart plus gossip catch-up when a ring is configured;
* a metrics scrape every tick, exactly as a Prometheus poller would;
* resource trend sampling into the :mod:`repro.soak.watchdog`, which
  fails the run on monotonic-growth invariant violations (leaks,
  fd creep, WAL pile-up, metric-cardinality creep).

Like :func:`repro.verify.runner.run_verify`, a soak never raises on a
finding: failures land in the :class:`SoakReport` and, when any exist,
in a seed-reproducible JSON artifact under ``.soak-failures/``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.history import history_to_dict
from repro.core.policy import ViaConfig, ViaPolicy
from repro.deployment.controller import ViaController
from repro.deployment.protocol import (
    MeasurementMessage,
    RequestMessage,
    decode_option,
    encode_option,
)
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.soak.budget import SoakBudget
from repro.soak.chaos import PLANT_KINDS, LeakyPolicy, derive_fault_plan
from repro.soak.watchdog import (
    DEFAULT_INVARIANTS,
    TrendWatchdog,
    sample_gc_objects,
    sample_open_fds,
    sample_rss_kb,
)
from repro.store.facade import Store, StoreConfig
from repro.store.recovery import recover
from repro.store.wal import segment_paths
from repro.verify.crashpoints import controller_fingerprint

__all__ = ["SOAK_OPTIONS", "SOAK_SITES", "SoakReport", "run_soak"]

SOAK_SITES = ("US", "GB", "IN", "SG", "DE", "BR", "JP", "ZA")

#: The workload's relay menu; the chaos plan schedules outages on these
#: same relays, so assignments keep crossing live/dead transitions.
SOAK_OPTIONS = [
    RelayOption.bounce(1),
    RelayOption.bounce(2),
    RelayOption.bounce(3),
    RelayOption.transit(1, 2),
    RelayOption.transit(2, 3),
]

_ENCODED_OPTIONS = [encode_option(o) for o in SOAK_OPTIONS]


def _policy_config(budget: SoakBudget) -> ViaConfig:
    """Tight refresh + hot epsilon (the statemachine recipe): the run
    crosses predictor refreshes constantly and keeps the policy RNG hot,
    so every restore has real learned state to get wrong."""
    return ViaConfig(
        metric="rtt_ms",
        refresh_hours=1.0,
        epsilon=0.25,
        min_direct_samples=1,
        seed=budget.seed,
    )


#: Small segments on every axis so rotation-by-size, -count and -age all
#: fire many times per smoke run; fsync off because the soak measures
#: lifecycle health, not power-loss durability (the verify plane owns
#: that), and the unbuffered WAL writes stay process-crash-safe.
_STORE_CONFIG = StoreConfig(
    fsync="off",
    max_segment_bytes=32 << 10,
    max_segment_records=200,
    max_segment_age_s=2.0,
)


@dataclass(slots=True)
class SoakReport:
    """What one soak drove, sampled, and found."""

    seed: int
    budget: SoakBudget
    n_ticks: int = 0
    n_calls: int = 0
    n_measurements: int = 0
    n_blackholed: int = 0
    n_hellos: int = 0
    n_outage_transitions: int = 0
    n_snapshots: int = 0
    n_compactions: int = 0
    n_restores: int = 0
    n_raced_restores: int = 0
    n_shard_restarts: int = 0
    n_gossip_rounds: int = 0
    n_scrapes: int = 0
    scrape_bytes: int = 0
    n_samples: int = 0
    #: Final windowed-slope verdict per invariant (see watchdog.evaluate).
    trends: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    #: Digest of the final controller fingerprint(s) + workload counters:
    #: equal seeds + budgets must produce equal values.
    workload_fingerprint: str = ""
    #: True when ``time_budget_s`` cut the tick loop short.
    truncated: bool = False
    #: True when a watchdog violation stopped the loop early.
    stopped_early: bool = False
    duration_s: float = 0.0
    artifact_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        b = self.budget
        lines = [
            f"soak seed={self.seed}: {self.n_ticks}/{b.ticks} ticks "
            f"({self.n_ticks * b.hours_per_tick:.0f} h call-clock) "
            f"in {self.duration_s:.1f}s wall"
        ]
        lines.append(
            f"  traffic: {self.n_calls} calls, {self.n_measurements} measurements, "
            f"{self.n_blackholed} blackholed, {self.n_hellos} hellos, "
            f"{self.n_outage_transitions} outage transitions"
        )
        lines.append(
            f"  lifecycle: {self.n_snapshots} snapshots, {self.n_compactions} "
            f"compactions, {self.n_restores} restores ({self.n_raced_restores} "
            f"racing compaction), {self.n_shard_restarts} shard restarts, "
            f"{self.n_gossip_rounds} gossip rounds, {self.n_scrapes} scrapes"
        )
        for t in self.trends:
            if not t.get("enough_data"):
                lines.append(f"  trend {t['invariant']}: insufficient samples")
                continue
            verdict = "VIOLATED" if t["violated"] else "ok"
            lines.append(
                f"  trend {t['invariant']}: slope {t['slope_per_sample']:+.1f}/sample, "
                f"growth {t['growth']:+.0f} over {t['n_samples']} samples -- {verdict}"
            )
        if self.truncated:
            lines.append("  TIME BUDGET EXHAUSTED: later ticks were skipped")
        if self.ok:
            lines.append("  PASS")
        else:
            named = sorted({f.get("invariant", f.get("leg", "?")) for f in self.failures})
            lines.append(f"  FAIL: {len(self.failures)} failures ({', '.join(named)})")
            if self.artifact_path is not None:
                lines.append(f"  artifact: {self.artifact_path}")
            lines.append(f"  reproduce with: repro soak --seed {self.seed}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "artifact_path"
        }
        payload["budget"] = dataclasses.asdict(self.budget)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SoakReport":
        """Rebuild a report from :meth:`to_dict` output (artifact JSON)."""
        data = dict(payload)
        budget = SoakBudget(**data.pop("budget"))
        return cls(budget=budget, **data)


def run_soak(
    budget: SoakBudget | None = None,
    *,
    workdir: str | Path | None = None,
    registry: MetricsRegistry | None = None,
    artifacts_dir: str | Path = ".soak-failures",
    plant: str | None = None,
) -> SoakReport:
    """Run one soak under ``budget``; never raises on a finding.

    ``plant`` injects a deliberate defect for self-testing the watchdog:
    ``"objects"`` swaps in the leaking policy wrapper, ``"fds"`` leaks a
    file handle per tick, ``"series"`` churns a fresh label value per
    tick.  A planted run must come back ``ok == False`` with the
    offending invariant named in the report -- that is the soak's own
    planted-bug test (``tests/test_soak.py``).
    """
    budget = budget or SoakBudget()
    if plant is not None and plant not in PLANT_KINDS:
        raise ValueError(f"unknown plant {plant!r}; expected one of {PLANT_KINDS}")
    registry = registry if registry is not None else MetricsRegistry()
    own_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="repro-soak-")) if own_workdir else Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    runner = _SoakRunner(budget, workdir=workdir, registry=registry, plant=plant)
    try:
        report = runner.run()
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    if report.failures:
        report.artifact_path = _write_artifact(artifacts_dir, report)
    return report


def _write_artifact(artifacts_dir: str | Path, report: SoakReport) -> Path:
    directory = Path(artifacts_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"soak-seed{report.seed}-{int(time.time())}.json"
    path.write_text(
        json.dumps(report.to_dict(), indent=2, default=repr), encoding="utf-8"
    )
    return path


class _SoakRunner:
    """One soak's mutable state: controller(s), watchdog, schedules."""

    def __init__(
        self,
        budget: SoakBudget,
        *,
        workdir: Path,
        registry: MetricsRegistry,
        plant: str | None,
    ) -> None:
        self.budget = budget
        self.workdir = workdir
        self.registry = registry
        self.plant = plant
        self.report = SoakReport(seed=budget.seed, budget=budget)
        self.plan = derive_fault_plan(budget.seed, budget.horizon_hours)
        self.watchdog = TrendWatchdog(
            specs=DEFAULT_INVARIANTS, window_samples=budget.window_samples
        )
        self.config = _policy_config(budget)
        self.down: frozenset[int] = frozenset()
        self.deadline: float | None = None
        self._greeted: set[int] = set()
        self._tripped: set[str] = set()
        self._fd_hoard: list = []
        self._kills = 0
        # The soak's own observability, on the registry it is soaking.
        self._obs_ticks = registry.counter(
            "via_soak_ticks_total", "Soak ticks driven."
        )
        self._obs_restores = registry.counter(
            "via_soak_restores_total",
            "Soak kill+recover cycles completed, by kind.",
            ("kind",),
        )
        self._obs_violations = registry.counter(
            "via_soak_invariant_violations_total",
            "Watchdog invariant violations, by invariant.",
            ("invariant",),
        )
        self._obs_duration = registry.gauge(
            "via_soak_last_duration_seconds",
            "Wall time of the most recent soak run.",
        )

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def run(self) -> SoakReport:
        started = time.monotonic()
        if self.budget.time_budget_s is not None:
            self.deadline = started + self.budget.time_budget_s
        if self.plant == "objects":
            LeakyPolicy.reset()
        try:
            if self.budget.n_shards >= 2:
                import asyncio

                asyncio.run(self._run_ring())
            else:
                self._run_single()
        finally:
            for fh in self._fd_hoard:
                fh.close()
            self._fd_hoard.clear()
            if self.plant == "objects":
                LeakyPolicy.reset()
            self.report.duration_s = time.monotonic() - started
            self._obs_duration.set(self.report.duration_s)
        self.report.trends = self.watchdog.evaluate()
        return self.report

    # ------------------------------------------------------------------
    # Shared per-tick machinery
    # ------------------------------------------------------------------

    def _out_of_time(self) -> bool:
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.report.truncated = True
            return True
        return False

    def _due(self, tick: int, every: int) -> bool:
        return every > 0 and (tick + 1) % every == 0

    def _plant_tick(self, tick: int) -> None:
        if self.plant == "fds":
            self._fd_hoard.append(open(os.devnull, "rb"))
        elif self.plant == "series":
            # Several fresh label values per tick: the unbounded-label
            # antipattern (e.g. a client id as a label value).
            probe = self.registry.counter(
                "via_soak_leak_probe_total",
                "Planted per-tick label churn (soak watchdog self-test).",
                ("probe",),
            )
            for lane in range(4):
                probe.labels(probe=f"p{tick}-{lane}").inc()

    def _draw_metrics(
        self, rng: random.Random, option: RelayOption, t_hours: float
    ) -> tuple[float, float, float]:
        """Plausible path metrics: per-relay baselines, a diurnal swing,
        and blackhole-grade numbers when the chosen path is down."""
        relays = set(option.relay_ids())
        if relays & self.down:
            return (
                850.0 + rng.uniform(0.0, 150.0),
                min(1.0, 0.35 + rng.random() * 0.3),
                40.0 + rng.uniform(0.0, 25.0),
            )
        diurnal = 12.0 * math.sin(math.tau * (t_hours % 24.0) / 24.0)
        base = 55.0 + 6.0 * len(relays) + 3.0 * sum(relays)
        rtt = max(5.0, base + diurnal + rng.uniform(-8.0, 20.0))
        return rtt, rng.uniform(0.0, 0.04), rng.uniform(0.5, 12.0)

    def _apply_outages(self, tick: int, targets) -> None:
        """Push the fault plan's relay-outage state for this tick."""
        downs = self.plan.relays_down_at((tick + 1) * self.budget.hours_per_tick)
        if downs != self.down:
            self.down = downs
            self.report.n_outage_transitions += 1
        for target in targets:
            target.set_down_relays(self.down)

    def _sample_and_check(self, tick: int, wal_dirs, registries) -> bool:
        """Record one sample of every trend line; True = a new violation."""
        self.watchdog.record("rss_kb", sample_rss_kb())
        self.watchdog.record("gc_objects", sample_gc_objects())
        self.watchdog.record("open_fds", sample_open_fds())
        self.watchdog.record(
            "wal_segments",
            float(sum(len(segment_paths(d)) for d in wal_dirs)),
        )
        self.watchdog.record(
            "metric_series", float(sum(r.total_series for r in registries))
        )
        self.report.n_samples += 1
        violated = False
        for verdict in self.watchdog.evaluate():
            if verdict["violated"] and verdict["invariant"] not in self._tripped:
                self._tripped.add(verdict["invariant"])
                self._obs_violations.labels(invariant=verdict["invariant"]).inc()
                self.report.failures.append(
                    {"leg": "watchdog", "tick": tick, **verdict}
                )
                violated = True
        return violated

    def _fingerprint_workload(self, *controllers) -> None:
        digest = hashlib.sha256()
        for controller in controllers:
            digest.update(controller_fingerprint(controller).encode("utf-8"))
        r = self.report
        digest.update(
            f"{r.n_calls}:{r.n_measurements}:{r.n_restores}:{r.n_hellos}".encode()
        )
        r.workload_fingerprint = digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # Single durable controller
    # ------------------------------------------------------------------

    def _new_controller(self) -> ViaController:
        """A controller on the soak's store root, sharing one registry
        across restarts so counters and series survive exactly as they
        would in a process that restarts its controller object."""
        policy_cls = LeakyPolicy if self.plant == "objects" else ViaPolicy
        return ViaController(
            self.config,
            store=Store(self.workdir / "store", _STORE_CONFIG, registry=self.registry),
            registry=self.registry,
            policy_cls=policy_cls,
        )

    def _run_single(self) -> None:
        budget = self.budget
        report = self.report
        rng = random.Random(budget.seed + 1)
        controller = self._new_controller()
        wal_dirs = [self.workdir / "store" / "wal"]
        try:
            for tick in range(budget.ticks):
                if self._out_of_time():
                    break
                self._apply_outages(tick, [controller])
                self._drive_tick_single(controller, tick, rng)
                self._plant_tick(tick)
                if self._due(tick, budget.scrape_every_ticks):
                    text = controller.metrics_text()
                    report.n_scrapes += 1
                    report.scrape_bytes += len(text)
                if self._due(tick, budget.snapshot_every_ticks):
                    controller.save_store_snapshot()
                    report.n_snapshots += 1
                if self._due(tick, budget.compact_every_ticks):
                    controller.store.compact()
                    report.n_compactions += 1
                if self._due(tick, budget.kill_every_ticks):
                    controller = self._crash_and_recover(controller, tick)
                if self._due(tick, budget.sample_every_ticks):
                    if self._sample_and_check(tick, wal_dirs, [self.registry]):
                        report.stopped_early = True
                        break
                report.n_ticks += 1
                self._obs_ticks.inc()
            self._fingerprint_workload(controller)
        finally:
            controller.store.close()

    def _drive_tick_single(
        self, controller: ViaController, tick: int, rng: random.Random
    ) -> None:
        budget = self.budget
        report = self.report
        for j in range(budget.calls_per_tick):
            t = (tick + (j + 1) / budget.calls_per_tick) * budget.hours_per_tick
            src = rng.randrange(budget.n_clients)
            dst = (src + 1 + rng.randrange(budget.n_clients - 1)) % budget.n_clients
            for cid in (src, dst):
                # First contact says hello; a trickle of re-hellos plays
                # the role of client reconnect churn.
                if cid not in self._greeted or rng.random() < 0.01:
                    controller._count_message("hello")
                    controller._on_hello(cid, SOAK_SITES[cid % len(SOAK_SITES)])
                    self._greeted.add(cid)
                    report.n_hellos += 1
            request = RequestMessage(
                src_id=src, dst_id=dst, t_hours=t, options=list(_ENCODED_OPTIONS)
            )
            controller._count_message("request")
            reply = controller._on_request(request)
            report.n_calls += 1
            if self.plan.blackholed_at(t):
                # The chaos plan ate the call setup: no measurement ever
                # comes back for this assignment.
                report.n_blackholed += 1
                continue
            rtt, loss, jitter = self._draw_metrics(rng, decode_option(reply.option), t)
            measurement = MeasurementMessage(
                src_id=src,
                dst_id=dst,
                t_hours=t,
                option=reply.option,
                rtt_ms=rtt,
                loss_rate=loss,
                jitter_ms=jitter,
            )
            controller._count_message("measurement")
            controller._on_measurement(measurement)
            report.n_measurements += 1

    def _crash_and_recover(self, controller: ViaController, tick: int) -> ViaController:
        """Kill the controller mid-stream and bring up a recovered one.

        Every cycle checks the fingerprint-equivalence contract; every
        ``raced_kill_every``-th cycle first launches a compaction on a
        background thread so the recovery scan races segment deletion
        (the production failure mode: a janitor compacting while the
        replacement process comes up).
        """
        self._kills += 1
        raced = self._kills % self.budget.raced_kill_every == 0
        pre = controller_fingerprint(controller)
        store = controller.store
        compaction: threading.Thread | None = None
        if raced:
            compaction = threading.Thread(target=store.compact, daemon=True)
            compaction.start()
        # The crash: drop the raw WAL handle -- no seal, no snapshot.
        wal = store.wal
        if wal._fh is not None:
            wal._fh.close()
            wal._fh = None
        revived = self._new_controller()
        # The registry intentionally survives restarts (a process-local
        # registry would reset the metric_series trend line every kill),
        # but a real replacement process starts its counters at zero and
        # rebuilds them from snapshot + replay -- which is exactly the
        # equivalence being checked.  Zero them here or replay would
        # re-increment on top of the live values.
        for series in revived._msg_counts.values():
            series.value = 0.0
        outcome = recover(revived.store, revived)
        if compaction is not None:
            compaction.join(timeout=30.0)
            # The race may have deleted segments after the new WAL indexed
            # them; reconcile so later compactions see only live files.
            gone = [s for s in revived.store.wal.sealed_segments() if not s.path.exists()]
            if gone:
                revived.store.wal.drop_segments(gone)
        post = controller_fingerprint(revived)
        if outcome.n_corrupt:
            self.report.failures.append(
                {
                    "leg": "restore",
                    "invariant": "recovery-clean-log",
                    "tick": tick,
                    "raced": raced,
                    "detail": f"clean log reported {outcome.n_corrupt} corrupt records",
                }
            )
        if post != pre:
            self.report.failures.append(
                {
                    "leg": "restore",
                    "invariant": "restore-fingerprint-equivalence",
                    "tick": tick,
                    "raced": raced,
                    "detail": "recovered controller diverged from its pre-kill state",
                }
            )
        # Outage state is operator runtime config, not learned state --
        # reapply it exactly as the fault plan's config push would.
        revived.set_down_relays(self.down)
        self.report.n_restores += 1
        if raced:
            self.report.n_raced_restores += 1
        self._obs_restores.labels(kind="raced" if raced else "clean").inc()
        return revived

    # ------------------------------------------------------------------
    # Sharded ring
    # ------------------------------------------------------------------

    @staticmethod
    def _canonical_history(history, min_window: int) -> dict:
        """A retention- and order-insensitive view of a history.

        Gossip prunes each shard's mirrors to windows ``>= period - 1``
        at its own pace, and merge order varies per shard, so equality
        checks must (a) ignore windows below the retention floor and
        (b) not depend on dict insertion order within a window."""
        payload = history_to_dict(history)
        windows = {
            w: sorted(json.dumps(e, sort_keys=True) for e in entries)
            for w, entries in payload["windows"].items()
            if int(w) >= min_window
        }
        return {"window_hours": payload["window_hours"], "windows": windows}

    @classmethod
    def _shard_fingerprint(cls, shard) -> str:
        """The durable subset of a shard's state: exactly what PR 8's
        WAL-failover contract guarantees survives a crash (own local
        history, labels, counters).  Gossip-merged fleet state is *not*
        durable by design -- the post-restart gossip round re-derives it.
        The local mirror is compared modulo gossip's retention pruning:
        a WAL replay legitimately resurrects windows the live shard had
        already pruned."""
        return json.dumps(
            {
                "local_history": cls._canonical_history(
                    shard.local_history, shard.policy.period - 1
                ),
                "site_labels": {str(k): v for k, v in shard.site_labels.items()},
                "n_measurements": shard.n_measurements,
                "n_requests": shard.n_requests,
            },
            sort_keys=True,
        )

    async def _run_ring(self) -> None:
        from repro.deployment.ring import InProcessRing, ShardedViaClient

        budget = self.budget
        report = self.report
        rng = random.Random(budget.seed + 1)
        ring_root = self.workdir / "ring"
        ring = InProcessRing(budget.n_shards, self.config, store_root=ring_root)
        await ring.start()
        wal_dirs = [ring_root / f"shard-{i}" / "wal" for i in range(budget.n_shards)]
        client = ShardedViaClient(0, SOAK_SITES[0], "127.0.0.1", ring.shards[0].port)
        await client.connect()
        report.n_hellos += 1
        try:
            for tick in range(budget.ticks):
                if self._out_of_time():
                    break
                self._apply_outages(tick, ring.shards)
                client = await self._drive_tick_ring(ring, client, tick, rng)
                self._plant_tick(tick)
                if self._due(tick, budget.scrape_every_ticks):
                    for shard in ring.shards:
                        text = shard.metrics_text()
                        report.scrape_bytes += len(text)
                    report.n_scrapes += 1
                if self._due(tick, budget.gossip_every_ticks):
                    await ring.gossip_round()
                    report.n_gossip_rounds += 1
                    # Post-round, every shard's merged view must agree on
                    # every window all of them still retain.
                    wmin = max(s.policy.period for s in ring.shards) - 1
                    views = {
                        json.dumps(
                            self._canonical_history(s.policy.history, wmin),
                            sort_keys=True,
                        )
                        for s in ring.shards
                    }
                    if len(views) != 1:
                        report.failures.append(
                            {
                                "leg": "gossip",
                                "invariant": "fleet-history-convergence",
                                "tick": tick,
                                "detail": (
                                    f"{len(views)} distinct merged views across "
                                    f"{budget.n_shards} shards for windows >= {wmin}"
                                ),
                            }
                        )
                if self._due(tick, budget.snapshot_every_ticks):
                    for shard in ring.shards:
                        shard.save_store_snapshot()
                    report.n_snapshots += 1
                if self._due(tick, budget.compact_every_ticks):
                    for shard in ring.shards:
                        shard.store.compact()
                    report.n_compactions += 1
                if self._due(tick, budget.shard_kill_every_ticks):
                    client = await self._kill_and_restart_shard(ring, client, tick, rng)
                if self._due(tick, budget.sample_every_ticks):
                    registries = [s.registry for s in ring.shards]
                    if self._sample_and_check(tick, wal_dirs, registries):
                        report.stopped_early = True
                        break
                report.n_ticks += 1
                self._obs_ticks.inc()
            self._fingerprint_workload(*ring.shards)
        finally:
            await client.close()
            await ring.stop()

    async def _drive_tick_ring(self, ring, client, tick: int, rng: random.Random):
        """One tick of wire-level traffic from the soak's single client
        (id 0 calls everyone: pair hashing still spreads the load across
        every shard)."""
        budget = self.budget
        report = self.report
        for j in range(budget.calls_per_tick):
            t = (tick + (j + 1) / budget.calls_per_tick) * budget.hours_per_tick
            dst = 1 + rng.randrange(budget.n_clients - 1)
            reply = await client.assign(dst, SOAK_OPTIONS, t)
            report.n_calls += 1
            if self.plan.blackholed_at(t):
                report.n_blackholed += 1
                continue
            rtt, loss, jitter = self._draw_metrics(rng, reply.option, t)
            await client.report_measurement(
                dst, reply.option, PathMetrics(rtt, loss, jitter), t
            )
            report.n_measurements += 1
        # Fence: a stats round-trip on every shard's connection orders all
        # fire-and-forget measurements before this tick's lifecycle legs.
        await client.fetch_stats()
        return client

    async def _kill_and_restart_shard(self, ring, client, tick: int, rng: random.Random):
        from repro.deployment.ring import ShardController, ShardedViaClient

        budget = self.budget
        report = self.report
        idx = rng.randrange(budget.n_shards)
        shard = ring.shards[idx]
        pre = self._shard_fingerprint(shard)
        # Crash: drop the WAL handle, then tear the frontend down without
        # the clean-shutdown store snapshot.
        wal = shard.store.wal
        if wal._fh is not None:
            wal._fh.close()
            wal._fh = None
        frontend = shard._frontend
        shard._frontend = None
        if frontend is not None:
            await frontend.stop()
        revived = ShardController(
            self.config,
            shard_index=idx,
            n_shards=budget.n_shards,
            gossip_on_map_update=False,
            store=self.workdir / "ring" / f"shard-{idx}",
        )
        await revived.start()
        post = self._shard_fingerprint(revived)
        if post != pre:
            report.failures.append(
                {
                    "leg": "restore",
                    "invariant": "shard-restore-fingerprint-equivalence",
                    "tick": tick,
                    "shard": idx,
                    "detail": "revived shard's durable state diverged from pre-kill",
                }
            )
        revived.set_down_relays(self.down)
        ring.shards[idx] = revived
        ring.publish_map()
        # Catch the revived shard back up on the fleet's history.
        await revived.gossip_now()
        report.n_shard_restarts += 1
        self._obs_restores.labels(kind="shard").inc()
        # The old client still holds a connection to the dead frontend;
        # reconnect against the republished map.
        await client.close()
        fresh = ShardedViaClient(0, SOAK_SITES[0], "127.0.0.1", ring.shards[0].port)
        await fresh.connect()
        report.n_hellos += 1
        return fresh
