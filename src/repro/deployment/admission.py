"""Admission control and graceful load shedding for the controller.

Via's premise is that relay selection must never make a call *worse*
than the default path.  Under overload the naive failure mode does
exactly that: requests queue unboundedly, p99 latency collapses, and
clients burn their whole timeout budget learning nothing.  This module
is the three-dimensional call-admission-control answer (after the CAC
literature in PAPERS.md): an explicit admission trade-off that protects
the service quality of *admitted* work by rejecting or degrading new
work, along three signals --

1. **connection count** -- how many clients the frontend is carrying
   (the CAC "number of connections" dimension);
2. **queue latency** -- the request queue's depth and its estimated
   wait (EWMA service time x depth), the "will this request make its
   deadline at all" signal;
3. **relay capacity** -- the assignment rate the relay fleet can absorb
   without violating the §4.6 per-relay load caps
   (``benchmarks/bench_ext_relay_load_cap.py``), modelled as a token
   bucket's refill rate via :meth:`AdmissionConfig.for_relay_fleet`.

Decisions form a **degradation ladder**, applied per request:

* ``admit`` -- full policy assignment (consumes a token, enters the
  bounded queue with a deadline);
* ``degrade`` -- answer from the controller's cached last assignment
  for the pair: stale but instant, touching no policy state;
* ``shed`` -- explicit :class:`~repro.deployment.protocol.ShedMessage`
  (v2) or a default-path assign (v1), so the client falls back *now*
  instead of timing out silently.

Every decision lands in ``via_admission_*`` metrics, so an operator can
see the ladder working before users can feel it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import MetricsRegistry

__all__ = ["AdmissionConfig", "AdmissionController", "AdmissionDecision"]

#: Ladder rungs, in decreasing order of service quality.
ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """One rung of the ladder plus the signal that put us there."""

    action: str  # "admit" | "degrade" | "shed"
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.action == ADMIT

    @property
    def degraded(self) -> bool:
        return self.action == DEGRADE

    @property
    def shed(self) -> bool:
        return self.action == SHED


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Tuning knobs of the admission ladder.

    The defaults are deliberately permissive -- an unconfigured
    controller admits everything, exactly the pre-admission behaviour --
    so admission is opt-in pressure handling, not a new failure mode.
    """

    #: Hard bound on queued (admitted, unserved) requests; at or beyond
    #: it every new request sheds.
    max_queue_depth: int = 1024
    #: Soft bound: at or beyond it new requests degrade to cache.
    degrade_queue_depth: int = 256
    #: Per-request deadline: time from admission to the policy running.
    #: A request that waited longer is shed explicitly, never served
    #: stale-after-deadline or dropped silently.
    queue_timeout_s: float = 1.0
    #: Token-bucket refill rate in admissions/second (relay capacity);
    #: ``None`` leaves the rate dimension unmetered.
    rate: float | None = None
    #: Token-bucket burst size (full bucket at startup).
    burst: float = 256.0
    #: Connection-count dimension: refuse *new connections* beyond
    #: ``max_connections`` and start degrading requests once the live
    #: count reaches ``degrade_connections``.  ``None`` disables.
    max_connections: int | None = None
    degrade_connections: int | None = None
    #: EWMA weight for the per-request service-time estimate feeding the
    #: queue-latency signal.
    service_ewma_alpha: float = 0.1

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1: {self.max_queue_depth}")
        if not 1 <= self.degrade_queue_depth <= self.max_queue_depth:
            raise ValueError(
                "need 1 <= degrade_queue_depth <= max_queue_depth: "
                f"{self.degrade_queue_depth} vs {self.max_queue_depth}"
            )
        if self.queue_timeout_s <= 0.0:
            raise ValueError(f"queue_timeout_s must be positive: {self.queue_timeout_s}")
        if self.rate is not None and self.rate <= 0.0:
            raise ValueError(f"rate must be positive when set: {self.rate}")
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1: {self.burst}")
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError(f"max_connections must be >= 1: {self.max_connections}")
        if self.degrade_connections is not None and self.degrade_connections < 1:
            raise ValueError(
                f"degrade_connections must be >= 1: {self.degrade_connections}"
            )
        if not 0.0 < self.service_ewma_alpha <= 1.0:
            raise ValueError(
                f"service_ewma_alpha must be in (0, 1]: {self.service_ewma_alpha}"
            )

    @classmethod
    def for_relay_fleet(
        cls,
        n_relays: int,
        *,
        per_relay_cap: float | None = 0.15,
        relay_calls_per_s: float = 200.0,
        **overrides,
    ) -> "AdmissionConfig":
        """Derive the token rate from relay capacity (§4.6 load caps).

        Each relay absorbs ``relay_calls_per_s`` concurrent-call setups.
        With a per-relay cap ``c`` (the busiest relay carries at most a
        ``c`` share of assignments -- the knob benchmarked in
        ``benchmarks/bench_ext_relay_load_cap.py``), the admissible total
        rate before the busiest relay saturates is ``relay_calls_per_s /
        c``, bounded by the whole fleet's ``n_relays *
        relay_calls_per_s``.  Without a cap, uncapped VIA concentrates
        load (Figure 17c), so the conservative admissible rate is a
        single relay's worth.
        """
        if n_relays < 1:
            raise ValueError(f"n_relays must be >= 1: {n_relays}")
        if per_relay_cap is not None and not 0.0 < per_relay_cap <= 1.0:
            raise ValueError(f"per_relay_cap must be in (0, 1]: {per_relay_cap}")
        fleet_rate = n_relays * relay_calls_per_s
        if per_relay_cap is None:
            rate = min(relay_calls_per_s, fleet_rate)
        else:
            rate = min(relay_calls_per_s / per_relay_cap, fleet_rate)
        return cls(rate=rate, **overrides)


class AdmissionController:
    """Stateful executor of the admission ladder (one per controller).

    The clock is injectable so tests can walk the token bucket through
    time without sleeping.  All mutation happens on the event-loop
    thread; no locking is needed.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self._clock = clock
        self._tokens = float(self.config.burst)
        self._last_refill = clock()
        self._ewma_service_s = 0.0
        self.n_connections = 0
        self.n_admitted = 0
        self.n_degraded = 0
        self.n_shed = 0
        self.n_connections_refused = 0
        #: Chaos hook: while True, every request sheds (reason="fault").
        self.forced_overload = False

        registry = registry if registry is not None else MetricsRegistry()
        self._obs_decisions = registry.counter(
            "via_admission_decisions_total",
            "Admission-ladder decisions for relay-assignment requests.",
            ("decision",),
        )
        for action in (ADMIT, DEGRADE, SHED):
            self._obs_decisions.labels(decision=action)
        self._obs_sheds = registry.counter(
            "via_admission_sheds_total",
            "Requests answered with an explicit shed, by triggering signal.",
            ("reason",),
        )
        self._obs_queue_depth = registry.gauge(
            "via_admission_queue_depth",
            "Admitted requests waiting for a serve pass.",
        )
        self._obs_tokens = registry.gauge(
            "via_admission_tokens",
            "Relay-capacity tokens currently available.",
        )
        self._obs_connections = registry.gauge(
            "via_admission_connections",
            "Live connections as the admission plane counts them.",
        )
        self._obs_refused = registry.counter(
            "via_admission_connections_refused_total",
            "Connections refused at accept time (connection-count signal).",
        )
        self._obs_queue_wait = registry.histogram(
            "via_admission_queue_wait_seconds",
            "Time admitted requests spent queued before the policy ran.",
        )
        self._obs_tokens.set(self._tokens)

    # ------------------------------------------------------------------
    # Connection-count dimension
    # ------------------------------------------------------------------

    def connection_opened(self) -> bool:
        """Account a new connection; False means refuse it (over cap)."""
        limit = self.config.max_connections
        if limit is not None and self.n_connections >= limit:
            self.n_connections_refused += 1
            self._obs_refused.inc()
            return False
        self.n_connections += 1
        self._obs_connections.set(self.n_connections)
        return True

    def connection_closed(self) -> None:
        self.n_connections = max(0, self.n_connections - 1)
        self._obs_connections.set(self.n_connections)

    @property
    def _connection_pressure(self) -> bool:
        soft = self.config.degrade_connections
        return soft is not None and self.n_connections >= soft

    # ------------------------------------------------------------------
    # Queue-latency dimension
    # ------------------------------------------------------------------

    def note_queue_depth(self, depth: int) -> None:
        self._obs_queue_depth.set(depth)

    def observe_queue_wait(self, seconds: float) -> None:
        self._obs_queue_wait.observe(seconds)

    def observe_service(self, seconds: float) -> None:
        """Fold one request's policy service time into the EWMA."""
        alpha = self.config.service_ewma_alpha
        if self._ewma_service_s == 0.0:
            self._ewma_service_s = seconds
        else:
            self._ewma_service_s += alpha * (seconds - self._ewma_service_s)

    def estimated_wait_s(self, queue_depth: int) -> float:
        """Expected queueing delay for a request arriving now."""
        return queue_depth * self._ewma_service_s

    # ------------------------------------------------------------------
    # Relay-capacity dimension (token bucket)
    # ------------------------------------------------------------------

    def _refill(self, now: float) -> None:
        rate = self.config.rate
        if rate is None:
            self._tokens = float(self.config.burst)
        else:
            elapsed = max(0.0, now - self._last_refill)
            self._tokens = min(float(self.config.burst), self._tokens + elapsed * rate)
        self._last_refill = now

    @property
    def tokens(self) -> float:
        self._refill(self._clock())
        return self._tokens

    # ------------------------------------------------------------------
    # The ladder
    # ------------------------------------------------------------------

    def decide(self, queue_depth: int) -> AdmissionDecision:
        """Place one arriving request on the ladder.

        Severe pressure sheds, moderate pressure degrades, otherwise the
        request is admitted (consuming a token).  The decision is purely
        a function of the three signals and the clock, so a driven test
        can walk the ladder deterministically.
        """
        cfg = self.config
        now = self._clock()
        self._refill(now)
        self._obs_tokens.set(self._tokens)
        if self.forced_overload:
            return self._shed("fault")
        if queue_depth >= cfg.max_queue_depth:
            return self._shed("queue_full")
        if self.estimated_wait_s(queue_depth) > cfg.queue_timeout_s:
            # Joining the queue now would blow the deadline anyway:
            # shedding up front is strictly kinder than a deadline shed.
            return self._shed("queue_latency")
        if self._tokens < 1.0:
            return self._degrade("rate")
        if queue_depth >= cfg.degrade_queue_depth:
            return self._degrade("queue_depth")
        if self._connection_pressure:
            return self._degrade("connections")
        self._tokens -= 1.0
        self._obs_tokens.set(self._tokens)
        self.n_admitted += 1
        self._obs_decisions.labels(decision=ADMIT).inc()
        return AdmissionDecision(ADMIT)

    def count_shed(self, reason: str) -> None:
        """Count a shed decided outside :meth:`decide` (deadline expiry,
        cache miss after degrade, shutdown drain)."""
        self.n_shed += 1
        self._obs_decisions.labels(decision=SHED).inc()
        self._obs_sheds.labels(reason=reason).inc()

    def count_degraded(self) -> None:
        """Count a degrade actually served from cache."""
        self.n_degraded += 1
        self._obs_decisions.labels(decision=DEGRADE).inc()

    def _shed(self, reason: str) -> AdmissionDecision:
        self.count_shed(reason)
        return AdmissionDecision(SHED, reason)

    def _degrade(self, reason: str) -> AdmissionDecision:
        # Counted as degraded only when the cache serve succeeds (the
        # server calls count_degraded / count_shed accordingly), so the
        # decision counter tracks outcomes, not intents.
        return AdmissionDecision(DEGRADE, reason)
