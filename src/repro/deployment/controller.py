"""The VIA controller as a real asyncio TCP service.

Wraps a :class:`~repro.core.policy.ViaPolicy` behind the wire protocol:
clients push per-call measurements (stage 1 of Figure 10) and query for
relay assignments (stage 4).  One controller serves many concurrent
clients; all policy state lives in-process, exactly like the paper's
central controller on Azure.  The network face itself -- protocol
negotiation, pipelining, the admission ladder -- lives in
:class:`~repro.deployment.aserver.ViaServer`; this class owns the state.

Robustness (§7 operational concerns):

* a policy exception while handling one message is logged and isolated --
  it never kills the client's connection, and a request still gets a
  best-effort default-path reply;
* an :class:`~repro.deployment.admission.AdmissionController` guards the
  request path: under overload the controller degrades to cached
  assignments, then sheds explicitly -- p99 latency stays bounded and no
  request ever times out silently;
* disconnected clients are dropped from the live-client set, so
  ``n_clients`` reflects reality (site labels stay sticky for call
  records);
* an optional :class:`~repro.deployment.faults.FaultPlan` turns the
  controller into its own chaos monkey (dropped connections, delayed or
  blackholed replies, stalled or force-shed request windows) for fault
  experiments;
* with a :class:`~repro.store.Store` attached, learned state is
  checkpointed to disk and every state-changing message is appended to a
  write-ahead log -- as the wire line the peer sent, when the server
  holds one -- *before* the policy acts on it; startup recovery
  replays the WAL tail on top of the latest snapshot, so a crash loses
  nothing instead of relearning from scratch.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Any

from repro._heap import long_lived
from repro.core.policy import ViaConfig, ViaPolicy
from repro.deployment.admission import AdmissionConfig, AdmissionController
from repro.deployment.aserver import ViaServer
from repro.deployment.faults import FaultInjector, FaultPlan
from repro.deployment.protocol import (
    MAX_LINE_BYTES,
    AssignMessage,
    HelloMessage,
    MeasurementMessage,
    MetricsMessage,
    RequestMessage,
    ResilienceMessage,
    StatsMessage,
    WireMenu,
    decode_option,
    encode_message,
    encode_option,
)
from repro.netmodel.options import RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.obs.pauses import GcPauses
from repro.obs.profiling import timed
from repro.store import Store, recover
from repro.telephony.call import Call

__all__ = ["ViaController"]

logger = logging.getLogger(__name__)

_SNAPSHOT_FORMAT = "via-controller-snapshot-v1"


class ViaController:
    """Asyncio server running the relay-selection policy.

    Use as an async context manager::

        async with ViaController(config) as controller:
            ...  # connect clients to controller.port

    ``client_sites`` holds the *live* clients (hello adds, disconnect or
    bye removes); ``site_labels`` remembers every site a client ever
    announced, used for the Call records' country field.

    ``faults`` injects controller-side chaos; ``store`` (a
    :class:`~repro.store.Store` or a directory for one) makes
    :meth:`start` recover the latest snapshot plus the WAL tail and never
    raise on damage (checkpoint on demand with
    :meth:`save_store_snapshot`).  ``admission`` tunes the overload ladder
    (the default config admits everything); admitted v2 requests queue
    for the frontend's serve pass, which answers each connection with one
    write per loop turn; ``idle_timeout_s`` disconnects slow-loris/idle
    peers (None disables).

    Every controller owns a private :class:`MetricsRegistry` (pass one in
    to share): message counters and per-message-type latency histograms
    are *always* collected (they back the stats endpoint, so they must be
    exact), while the policy's assign-path histograms on the same registry
    fill in only when :mod:`repro.obs.runtime` is enabled.  Scrape the
    whole registry with :meth:`metrics_text` or, over the wire, with a
    :class:`~repro.deployment.protocol.MetricsRequestMessage`.

    While its frontend serves, the controller holds the heap frozen
    (:func:`repro._heap.long_lived`), so collections scan only what
    serving allocates, and :attr:`gc_pauses` counts every collection by
    generation (``via_gc_*`` in the scrape, or
    ``gc_pauses.by_generation()``).
    """

    #: Message types pre-bound in the registry so a scrape shows every
    #: series at zero before the first message arrives.
    _MESSAGE_TYPES = (
        "hello",
        "measurement",
        "request",
        "stats_request",
        "metrics_request",
        "resilience",
        "sync_request",
        "shard_map",
        "bye",
    )

    def __init__(
        self,
        policy_config: ViaConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: FaultPlan | None = None,
        registry: MetricsRegistry | None = None,
        store: Store | str | Path | None = None,
        admission: AdmissionConfig | None = None,
        idle_timeout_s: float | None = None,
        policy_cls: type[ViaPolicy] = ViaPolicy,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.policy = policy_cls(
            policy_config or ViaConfig(), name="controller", registry=self.registry
        )
        self.host = host
        self._requested_port = port
        self._idle_timeout_s = idle_timeout_s
        self.client_sites: dict[int, str] = {}
        self.site_labels: dict[int, str] = {}
        self._call_counter = 0
        self._client_resilience: dict[int, ResilienceMessage] = {}
        #: Last served assignment per (src, dst): the stale-but-instant
        #: state the degrade rung of the admission ladder answers from.
        self._assign_cache: dict[tuple[int, int], RelayOption] = {}
        self.faults = FaultInjector(faults) if faults is not None else None
        self.admission = AdmissionController(admission, registry=self.registry)
        self._frontend: ViaServer | None = None
        # Durable storage plane: a path builds a Store sharing this
        # controller's registry, so one scrape shows via_store_* too.
        if store is not None and not isinstance(store, Store):
            store = Store(store, registry=self.registry)
        self.store = store
        # Registry-backed operational counters (PR 1 kept these as ad-hoc
        # ints; the wire-visible StatsMessage shape is unchanged).
        messages = self.registry.counter(
            "via_controller_messages_total",
            "Messages handled, by protocol message type.",
            ("type",),
        )
        self._msg_counts = {t: messages.labels(type=t) for t in self._MESSAGE_TYPES}
        self._msg_seconds = self.registry.histogram(
            "via_controller_message_duration_seconds",
            "Controller-side handling latency, by protocol message type.",
            ("type",),
        )
        # Resolved per type on first use (not pre-bound like the counters:
        # nine empty 20-bucket histograms would double an idle scrape).
        self._msg_timers: dict[str, Any] = {}
        self._obs_reconnects = self.registry.counter(
            "via_controller_reconnects_total",
            "Hello messages from a client id seen before (client reconnects).",
        )
        self._obs_policy_errors = self.registry.counter(
            "via_controller_policy_errors_total",
            "Policy exceptions isolated while handling a message.",
        )
        self._obs_protocol_errors = self.registry.counter(
            "via_controller_protocol_errors_total",
            "Malformed or oversized wire lines rejected.",
        )
        self._obs_clients = self.registry.gauge(
            "via_controller_clients",
            "Currently connected clients (hello seen, not yet disconnected).",
        )
        # Silent state loss is an operator's nightmare: every startup
        # restore attempt lands here, so "corrupt" can page someone.
        self._obs_snapshot_restores = self.registry.counter(
            "via_controller_snapshot_restores_total",
            "Startup state-restore attempts, by outcome.",
            ("outcome",),
        )
        for outcome in ("ok", "corrupt", "missing"):
            self._obs_snapshot_restores.labels(outcome=outcome)
        #: Garbage-collection pauses by generation, counted while serving.
        self.gc_pauses = GcPauses(self.registry)

    # ------------------------------------------------------------------
    # Registry-backed counter views (the StatsMessage observables)
    # ------------------------------------------------------------------

    @property
    def n_measurements(self) -> int:
        return int(self._msg_counts["measurement"].value)

    @n_measurements.setter
    def n_measurements(self, value: int) -> None:
        self._msg_counts["measurement"].value = float(value)

    @property
    def n_requests(self) -> int:
        return int(self._msg_counts["request"].value)

    @n_requests.setter
    def n_requests(self, value: int) -> None:
        self._msg_counts["request"].value = float(value)

    @property
    def n_reconnects(self) -> int:
        return int(self._obs_reconnects.value)

    @n_reconnects.setter
    def n_reconnects(self, value: int) -> None:
        self._obs_reconnects._default_series().value = float(value)

    @property
    def n_policy_errors(self) -> int:
        return int(self._obs_policy_errors.value)

    @n_policy_errors.setter
    def n_policy_errors(self, value: int) -> None:
        self._obs_policy_errors._default_series().value = float(value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._frontend is not None:
            raise RuntimeError("controller already started")
        if self.store is not None:
            # Durable-store recovery: snapshot + WAL-tail replay.  Never
            # raises; damage downgrades to a counted outcome instead.
            report = recover(self.store, self)
            self._obs_snapshot_restores.labels(outcome=report.snapshot_outcome).inc()
        frontend = ViaServer(
            self,
            self.admission,
            host=self.host,
            port=self._requested_port,
            idle_timeout_s=self._idle_timeout_s,
        )
        await frontend.start()
        self._frontend = frontend
        # What start-up built -- the policy, the recovered state, the
        # modules -- leaves the collector's scans while this serves.  The
        # frontend releases both when it stops, however it is stopped.
        frontend.serving.enter_context(long_lived())
        self.gc_pauses.attach()
        frontend.serving.callback(self.gc_pauses.detach)

    async def stop(self) -> None:
        """Stop serving and sever live connections (a crash, as clients
        see it: their next request must reconnect or fall back)."""
        if self._frontend is not None:
            await self._frontend.stop()
            self._frontend = None
            if self.store is not None:
                # Clean shutdown folds the log down: final snapshot,
                # compaction of the now-covered segments, handles closed.
                try:
                    self.save_store_snapshot()
                except Exception:
                    logger.exception("final store snapshot failed; WAL retains state")
                self.store.close()

    async def __aenter__(self) -> "ViaController":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._frontend is None:
            raise RuntimeError("controller not started")
        return self._frontend.port

    # ------------------------------------------------------------------
    # Crash recovery: snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_dict(self) -> dict:
        """JSON-compatible checkpoint: policy state + controller counters."""
        return {
            "format": _SNAPSHOT_FORMAT,
            "policy": self.policy.state_dict(),
            "n_measurements": self.n_measurements,
            "n_requests": self.n_requests,
            "call_counter": self._call_counter,
            "site_labels": {str(cid): site for cid, site in self.site_labels.items()},
        }

    def restore_dict(self, payload: dict) -> None:
        """Restore a checkpoint produced by :meth:`snapshot_dict`."""
        if payload.get("format") != _SNAPSHOT_FORMAT:
            raise ValueError(f"unrecognised snapshot format: {payload.get('format')!r}")
        self.policy.load_state_dict(payload["policy"])
        self.n_measurements = int(payload.get("n_measurements", 0))
        self.n_requests = int(payload.get("n_requests", 0))
        self._call_counter = int(payload.get("call_counter", 0))
        self.site_labels.update(
            {int(cid): site for cid, site in payload.get("site_labels", {}).items()}
        )

    # ------------------------------------------------------------------
    # Relay outage plumbing (operators / fault plans mark relays down)
    # ------------------------------------------------------------------

    def set_down_relays(self, relay_ids) -> None:
        """Mark ``relay_ids`` down: the policy routes around them."""
        self.policy.set_down_relays(relay_ids)

    # ------------------------------------------------------------------
    # Ring hooks (overridden by repro.deployment.ring.ShardController;
    # a standalone controller is its own one-shard fleet)
    # ------------------------------------------------------------------

    def _hello_shard_map(self) -> dict | None:
        """Shard map to attach to v2 hello_acks; None on single controllers
        (and omitted from the wire, keeping pre-ring hello_acks intact)."""
        return None

    def _sync_replies(self, message: Any) -> list[Any]:
        """Frames answering a gossip ``sync_request``.

        A standalone controller has no shard-local history mirror, so it
        declines rather than serve a payload gossip would double-count.
        """
        from repro.deployment.protocol import ErrorMessage

        return [
            ErrorMessage(
                code="unknown_type",
                detail="sync_request: this controller is not a ring shard",
            )
        ]

    def _on_shard_map(self, message: Any) -> None:
        """A shard-map push arrived; standalone controllers ignore it."""
        logger.debug("ignoring shard_map push: not a ring shard")

    # ------------------------------------------------------------------
    # Message accounting (shared by the frontend and WAL replay)
    # ------------------------------------------------------------------

    def _count_message(self, msg_type: str) -> None:
        series = self._msg_counts.get(msg_type)
        if series is None:
            # Unknown-but-decodable types (e.g. a stray assign) still count.
            series = self._msg_counts.setdefault(
                msg_type,
                self.registry.counter(
                    "via_controller_messages_total",
                    "Messages handled, by protocol message type.",
                    ("type",),
                ).labels(type=msg_type),
            )
        series.inc()

    def _observe_seconds(self, msg_type: str, seconds: float) -> None:
        series = self._msg_timers.get(msg_type)
        if series is None:
            series = self._msg_timers[msg_type] = self._msg_seconds.labels(type=msg_type)
        series.observe(seconds)

    def _maybe_store_snapshot(self) -> None:
        if self.store is not None and self.store.should_snapshot():
            try:
                self.save_store_snapshot()
            except Exception:
                logger.exception("auto-snapshot failed; WAL still covers state")

    # ------------------------------------------------------------------
    # Policy bridging
    # ------------------------------------------------------------------

    def _call_from(self, src_id: int, dst_id: int, t_hours: float) -> Call:
        """A minimal Call record: client ids play the role of AS numbers."""
        self._call_counter += 1
        return Call(
            call_id=self._call_counter,
            t_hours=t_hours,
            src_asn=src_id,
            dst_asn=dst_id,
            src_country=self.site_labels.get(src_id, "?"),
            dst_country=self.site_labels.get(dst_id, "?"),
            src_user=src_id,
            dst_user=dst_id,
        )

    def _log(self, kind: str, line: bytes | None, message: Any) -> None:
        """Log-before-act: the WAL holds the peer's ``line`` (in-process
        callers have none: the message, encoded) before the policy sees it."""
        self.store.log_line(kind, line if line is not None else encode_message(message))

    def _on_hello(
        self, client_id: int, site: str, *, live: bool = True, line: bytes | None = None
    ) -> None:
        """Register a client introduction (``live=False`` during replay:
        site labels are state, live connections are not)."""
        if live and self.store is not None:
            self._log("hello", line, HelloMessage(client_id=client_id, site=site))
        if client_id in self.site_labels:
            self._obs_reconnects.inc()
        self.site_labels[client_id] = site
        if live:
            self.client_sites[client_id] = site
            self._obs_clients.set(len(self.client_sites))

    def _on_disconnect(self, client_id: int) -> None:
        """Drop a client from the live set (bye or connection loss)."""
        self.client_sites.pop(client_id, None)
        self._obs_clients.set(len(self.client_sites))

    def _on_measurement(
        self, message: MeasurementMessage, *, log: bool = True, line: bytes | None = None
    ) -> None:
        if log and self.store is not None:
            self._log("measurement", line, message)
        call = self._call_from(message.src_id, message.dst_id, message.t_hours)
        self.policy.observe(call, decode_option(message.option), message.metrics())

    def _on_request(
        self, message: RequestMessage, *, log: bool = True, line: bytes | None = None
    ) -> AssignMessage:
        if log and self.store is not None:
            # Requests are logged too: assignment consumes policy RNG and
            # builds bandit state, so recovery must replay them to keep a
            # restored controller's future choices identical.
            self._log("request", line, message)
        call = self._call_from(message.src_id, message.dst_id, message.t_hours)
        choice = self.policy.assign(call, self._offered(message))
        self._assign_cache[(message.src_id, message.dst_id)] = choice
        return AssignMessage(option=encode_option(choice), corr_id=message.corr_id)

    @staticmethod
    def _offered(message: RequestMessage) -> list[RelayOption]:
        """A request's menu as options: the ones decode_message took from
        its menu table, else decoded here (a table miss, WAL replay, an
        in-process caller)."""
        menu = message.options
        if type(menu) is WireMenu:
            # A list: the policy's warm-menu check compares lists.
            return list(menu.options)
        return [decode_option(o) for o in menu]

    def cached_assignment(self, message: RequestMessage) -> AssignMessage | None:
        """The degrade rung: the pair's last assignment, if it is still
        among the offered options (compared as options, so either spelling
        of direct matches).  Touches no policy state and consumes no
        policy RNG, so degraded serving never perturbs the admitted
        stream's determinism."""
        cached = self._assign_cache.get((message.src_id, message.dst_id))
        if cached is None or cached not in self._offered(message):
            return None
        return AssignMessage(option=encode_option(cached), corr_id=message.corr_id)

    # ------------------------------------------------------------------
    # Durable store bridging (WAL replay + snapshots)
    # ------------------------------------------------------------------

    def apply_record(self, record: dict) -> None:
        """Re-apply one WAL record during recovery.

        Mirrors the live handlers exactly -- same counters, same policy
        error isolation -- minus store logging (the record is already on
        disk) and minus replies (there is no peer).  Unknown kinds are
        ignored for forward compatibility.
        """
        kind = record.get("kind")
        if kind == "hello":
            self._count_message("hello")
            self._on_hello(int(record["client_id"]), str(record["site"]), live=False)
        elif kind == "measurement":
            self._count_message("measurement")
            message = MeasurementMessage(
                src_id=int(record["src_id"]),
                dst_id=int(record["dst_id"]),
                t_hours=float(record["t_hours"]),
                option=record["option"],
                rtt_ms=float(record["rtt_ms"]),
                loss_rate=float(record["loss_rate"]),
                jitter_ms=float(record["jitter_ms"]),
            )
            try:
                self._on_measurement(message, log=False)
            except Exception:
                self._obs_policy_errors.inc()
                logger.exception("replayed policy.observe failed (seq=%s)", record.get("seq"))
        elif kind == "request":
            self._count_message("request")
            request = RequestMessage(
                src_id=int(record["src_id"]),
                dst_id=int(record["dst_id"]),
                t_hours=float(record["t_hours"]),
                options=list(record["options"]),
            )
            try:
                self._on_request(request, log=False)
            except Exception:
                self._obs_policy_errors.inc()
                logger.exception("replayed policy.assign failed (seq=%s)", record.get("seq"))

    @timed("controller.save_store_snapshot")
    def save_store_snapshot(self) -> Path:
        """Snapshot into the durable store and fold the covered WAL down."""
        if self.store is None:
            raise ValueError("no store configured")
        return self.store.snapshot(self)

    @staticmethod
    def _default_reply(message: RequestMessage) -> AssignMessage:
        """Best-effort reply when the policy blew up or the request was
        shed for a v1 peer: the default path if offered, else the first
        candidate.  ``message`` came through decode_message, so its menu
        is a non-empty list of checked option objects."""
        for option_data in message.options:
            if option_data.get("kind") == "direct":
                return AssignMessage(option=option_data, corr_id=message.corr_id)
        return AssignMessage(option=message.options[0], corr_id=message.corr_id)

    def metrics_text(self) -> str:
        """The controller's full Prometheus text exposition: message
        counters, per-type latency histograms, admission-plane gauges,
        and the policy's assign-path instruments (fed while observability
        is enabled)."""
        return self.registry.render_text()

    def _metrics_reply(self) -> MetricsMessage:
        """The exposition as a wire message, truncated at a line boundary
        if a huge registry would overflow the protocol's line limit."""
        text = self.metrics_text()
        # JSON escaping roughly doubles worst-case size; keep a margin.
        budget = MAX_LINE_BYTES - 4096
        if len(text.encode("utf-8")) > budget // 2:
            lines = text.splitlines()
            kept: list[str] = []
            size = 0
            for line in lines:
                size += len(line.encode("utf-8")) + 1
                if 2 * size > budget:
                    kept.append("# TRUNCATED: exposition exceeded wire line limit")
                    break
                kept.append(line)
            text = "\n".join(kept) + "\n"
        return MetricsMessage(text=text)

    def _stats(self) -> StatsMessage:
        """Operator-facing counters (the §7 scalability discussion's
        observables: per-call control load, client population, resilience
        events, and the admission plane's shed/degraded totals)."""
        reports = self._client_resilience.values()
        return StatsMessage(
            n_measurements=self.n_measurements,
            n_requests=self.n_requests,
            n_clients=len(self.client_sites),
            n_refreshes=self.policy.n_refreshes,
            n_fallbacks=sum(r.n_fallbacks for r in reports),
            n_retries=sum(r.n_retries for r in reports),
            n_reconnects=self.n_reconnects,
            n_policy_errors=self.n_policy_errors,
            n_faults_injected=(
                self.faults.n_faults_injected if self.faults is not None else 0
            ),
            n_shed=self.admission.n_shed,
            n_degraded=self.admission.n_degraded,
        )
