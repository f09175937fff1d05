"""Testbed orchestration: the §5.5 controlled experiment, end to end.

Reproduces the paper's methodology over real localhost TCP:

1. spin up the controller and 14 clients across five countries
   (Singapore, India, USA, UK, Sri Lanka -- the paper's sites),
2. *measurement phase*: each of 18 caller-callee pairs makes short
   back-to-back calls through every relaying option several times
   (the paper: "9-20 different relaying options, 4-5 times each"),
3. *VIA phase*: each pair makes calls routed by the controller's
   relay-selection policy, reporting measurements as it goes,
4. score each VIA-phase call's *sub-optimality*
   ``(Perf_VIA - Perf_oracle) / Perf_oracle`` against the ground-truth
   best option of the day (Figure 18).

The direct path is omitted as an option, as in the paper.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import via_config
from repro.deployment.admission import AdmissionConfig
from repro.deployment.client import TestbedClient
from repro.deployment.controller import ViaController
from repro.deployment.faults import FaultPlan
from repro.deployment.protocol import LATEST_PROTOCOL
from repro.deployment.resilience import RetryPolicy
from repro.netmodel.options import RelayOption
from repro.netmodel.topology import TopologyConfig
from repro.netmodel.world import World, WorldConfig, build_world
from repro.obs import runtime as obs_runtime

__all__ = ["TestbedConfig", "TestbedReport", "run_testbed"]

#: Retry policy used in chaos mode when the config does not supply one:
#: tight timeouts so blackholed/delayed replies fall back quickly instead
#: of stretching the experiment's wall-clock; full jitter so a fleet of
#: clients retrying into the same fault decorrelates instead of herding.
CHAOS_RETRY = RetryPolicy(
    max_attempts=3,
    request_timeout_s=0.25,
    base_delay_s=0.01,
    max_delay_s=0.05,
    deadline_s=2.0,
    jitter_mode="full",
)

#: The five deployment countries of the paper's testbed.
PAPER_SITES: tuple[str, ...] = ("SG", "IN", "US", "GB", "LK")


@dataclass(frozen=True, slots=True)
class TestbedConfig:
    """Scale and schedule of the controlled deployment."""

    n_clients: int = 14
    n_pairs: int = 18
    #: Back-to-back calls per (pair, option) in the measurement phase.
    measurement_rounds: int = 4
    #: VIA-driven calls per pair in the evaluation phase.
    via_rounds: int = 30
    metric: str = "rtt_ms"
    seed: int = 99
    #: Registry name of the controller's policy; must resolve to a
    #: :class:`~repro.core.policy.ViaPolicy` variant (``via``,
    #: ``strawman-prediction``, ...) because the wire protocol drives the
    #: scalar assign/observe interface with checkpointing.
    policy: str = "via"
    sites: tuple[str, ...] = PAPER_SITES
    #: Chaos mode: a fault plan injected into the controller and the world
    #: (connection drops, delayed/blackholed replies, relay outages).
    chaos: FaultPlan | None = None
    #: Client retry policy; defaults to CHAOS_RETRY when chaos is on, and
    #: to no resilience layer (the original fail-fast client) otherwise.
    retry: RetryPolicy | None = None
    #: Observability: enable span tracing + gated histograms for the run
    #: and scrape the controller over the wire into ``report.metrics_text``.
    observe: bool = False
    #: Durable storage: when set, the controller write-ahead-logs every
    #: state-changing message under this directory, snapshots on stop,
    #: and recovers from snapshot + WAL replay on start.
    store_dir: str | None = None
    #: Wire protocol the clients speak (1 = PR 1 dialect, 2 = pipelined
    #: correlation-id dialect); the controller always accepts both.
    protocol: int = LATEST_PROTOCOL
    #: Admission-ladder tuning for the controller; None admits everything
    #: (the pre-admission behaviour).
    admission: AdmissionConfig | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 2 or self.n_pairs < 1:
            raise ValueError("need at least two clients and one pair")
        if self.measurement_rounds < 1 or self.via_rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not self.sites:
            raise ValueError("need at least one site")
        _testbed_policy_class(self.policy)  # fail fast on bad names


def _testbed_policy_class(name: str) -> type:
    """Resolve a registry policy name to the controller's policy class.

    Raises :class:`~repro.core.registry.UnknownPolicyError` (with its
    did-you-mean listing) for unregistered names, and ``ValueError`` for
    registered policies that are not ViaPolicy variants.
    """
    from repro.core.policy import ViaPolicy
    from repro.core.registry import REGISTRY

    entry = REGISTRY.get(name)
    if entry.policy_class is None or not issubclass(entry.policy_class, ViaPolicy):
        raise ValueError(
            f"testbed policy {name!r} is not a ViaPolicy variant; the "
            f"controller needs the scalar assign/observe + checkpoint "
            f"interface (try 'via')"
        )
    return entry.policy_class


@dataclass(slots=True)
class TestbedReport:
    """Figure 18 material: per-call sub-optimality of VIA's choices."""

    suboptimalities: list[float] = field(default_factory=list)
    n_pairs: int = 0
    n_calls: int = 0
    n_measurements: int = 0
    options_per_pair: list[int] = field(default_factory=list)
    # Resilience observables (nonzero only under chaos / faults):
    n_fallbacks: int = 0
    n_retries: int = 0
    n_reconnects: int = 0
    n_timeouts: int = 0
    n_dropped_measurements: int = 0
    #: Requests the controller explicitly shed (client-observed; the
    #: paired call proceeded on the client-side default path).
    n_sheds: int = 0
    #: Requests the controller answered from its stale assignment cache.
    n_degraded: int = 0
    n_faults_injected: int = 0
    n_policy_errors: int = 0
    #: VIA-phase calls placed while a relay outage window was active.
    n_outage_calls: int = 0
    #: VIA-phase calls whose assigned option rode a down relay anyway.
    n_dead_assignments: int = 0
    #: WAL records the controller's durable store appended (0 without one).
    n_wal_records: int = 0
    #: Prometheus text exposition scraped from the controller at the end
    #: of the run (always captured; richest with ``observe=True``).
    metrics_text: str = ""

    @property
    def frac_exact_best(self) -> float:
        """Fraction of calls where VIA picked the single best option."""
        if not self.suboptimalities:
            return 0.0
        return float(np.mean(np.asarray(self.suboptimalities) <= 1e-9))

    def frac_within(self, tolerance: float) -> float:
        """Fraction of calls within ``tolerance`` of the oracle (0.2 = 20%)."""
        if not self.suboptimalities:
            return 0.0
        return float(np.mean(np.asarray(self.suboptimalities) <= tolerance))

    def cdf(self, points: int = 50) -> list[tuple[float, float]]:
        """(sub-optimality, cumulative fraction) points for the Fig 18 CDF."""
        values = np.sort(np.asarray(self.suboptimalities))
        if values.size == 0:
            return []
        fractions = np.arange(1, values.size + 1) / values.size
        step = max(1, values.size // points)
        return [(float(v), float(f)) for v, f in zip(values[::step], fractions[::step])]


def _build_testbed_world(config: TestbedConfig) -> World:
    """A world whose country catalog covers the paper's five sites."""
    # The catalog is ordered by call volume; Sri Lanka is deep in it, so a
    # catalog-prefix large enough to include every site is required.
    from repro.netmodel.topology import COUNTRY_CATALOG

    codes = [c[0] for c in COUNTRY_CATALOG]
    needed = max(codes.index(site) for site in config.sites) + 1
    return build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=needed, n_relays=14, seed=config.seed),
            n_days=4,
            seed=config.seed,
        )
    )


def _pick_clients_and_pairs(
    world: World, config: TestbedConfig, rng: np.random.Generator
) -> tuple[list[tuple[int, str]], list[tuple[int, int]]]:
    """(client_id -> (asn, site)) assignments and cross-site pairs.

    Clients are spread round-robin over the sites; pairs connect clients
    in *different* countries (the paper's pairs were international).
    """
    clients: list[tuple[int, str]] = []
    site_ases = {site: list(world.topology.country_ases[site]) for site in config.sites}
    for i in range(config.n_clients):
        site = config.sites[i % len(config.sites)]
        ases = site_ases[site]
        clients.append((int(ases[i % len(ases)]), site))

    candidates = [
        (a, b)
        for a in range(config.n_clients)
        for b in range(config.n_clients)
        if clients[a][1] != clients[b][1] and clients[a][0] != clients[b][0]
    ]
    if len(candidates) < config.n_pairs:
        raise ValueError("not enough cross-site client pairs; add clients or sites")
    chosen = rng.choice(len(candidates), size=config.n_pairs, replace=False)
    return clients, [candidates[int(i)] for i in chosen]


def _relayed_options(world: World, src_asn: int, dst_asn: int) -> list[RelayOption]:
    """The pair's candidate options with the direct path removed (§5.5)."""
    return [o for o in world.options_for_pair(src_asn, dst_asn) if o.is_relayed]


async def _run_async(config: TestbedConfig) -> TestbedReport:
    rng = np.random.default_rng(config.seed)
    world = _build_testbed_world(config)
    clients_spec, pairs = _pick_clients_and_pairs(world, config, rng)

    chaos = config.chaos
    retry = config.retry
    if chaos is not None:
        # Relay outages live in the world: calls through a dead relay see
        # blackhole metrics, exactly what a real kill-relay event does.
        for outage in chaos.relay_outages:
            world.add_outage(outage)
        if retry is None:
            retry = CHAOS_RETRY

    policy_config = via_config(
        config.metric,
        refresh_hours=24.0,
        seed=config.seed,
        epsilon=0.02,
        min_direct_samples=2,
        use_tomography=False,
    )
    report = TestbedReport(n_pairs=len(pairs))

    async with ViaController(
        policy_config,
        faults=chaos,
        store=config.store_dir,
        admission=config.admission,
        policy_cls=_testbed_policy_class(config.policy),
    ) as controller:
        clients = [
            TestbedClient(
                client_id=i,
                site=site,
                host="127.0.0.1",
                port=controller.port,
                retry=retry,
                protocol=config.protocol,
            )
            for i, (_asn, site) in enumerate(clients_spec)
        ]
        await asyncio.gather(*(c.connect() for c in clients))
        try:
            # ----- Phase 1: back-to-back measurement calls (day 0) -----
            t_hours = 0.1
            for src_idx, dst_idx in pairs:
                src_asn, _ = clients_spec[src_idx]
                dst_asn, _ = clients_spec[dst_idx]
                options = _relayed_options(world, src_asn, dst_asn)
                report.options_per_pair.append(len(options))
                for _round in range(config.measurement_rounds):
                    for option in options:
                        metrics = world.sample_call(src_asn, dst_asn, option, t_hours, rng)
                        await clients[src_idx].report_measurement(
                            dst_idx, option, metrics, t_hours
                        )
                        report.n_measurements += 1
                t_hours += 0.01

            # ----- Phase 2: VIA-driven calls, scored vs oracle (day 1) -----
            eval_day = 1

            async def one_call(src_idx: int, dst_idx: int, t_hours: float) -> None:
                src_asn, _ = clients_spec[src_idx]
                dst_asn, _ = clients_spec[dst_idx]
                options = _relayed_options(world, src_asn, dst_asn)
                choice = await clients[src_idx].request_assignment(dst_idx, options, t_hours)
                if world.relays_down_at(t_hours):
                    report.n_outage_calls += 1
                    if not world.option_available(choice, t_hours):
                        report.n_dead_assignments += 1
                metrics = world.sample_call(src_asn, dst_asn, choice, t_hours, rng)
                await clients[src_idx].report_measurement(dst_idx, choice, metrics, t_hours)
                true_costs = {
                    o: world.true_mean(src_asn, dst_asn, o, eval_day).get(config.metric)
                    for o in options
                }
                best_cost = min(true_costs.values())
                report.suboptimalities.append(
                    (true_costs[choice] - best_cost) / best_cost
                )
                report.n_calls += 1

            for round_idx in range(config.via_rounds):
                t_hours = 24.05 + round_idx * 0.02
                if chaos is not None:
                    # Operators mark scheduled outages down at the
                    # controller; the policy repicks around them.
                    controller.set_down_relays(world.relays_down_at(t_hours))
                await asyncio.gather(
                    *(one_call(src, dst, t_hours) for src, dst in pairs)
                )

            # Scrape the controller over the wire (the same exchange an
            # operator's poller would run); fall back to the in-process
            # registry if chaos severed the scraping client's connection.
            try:
                report.metrics_text = await clients[0].fetch_metrics()
            except Exception:
                report.metrics_text = controller.metrics_text()
        finally:
            await asyncio.gather(*(c.close() for c in clients))
            for client in clients:
                report.n_fallbacks += client.stats.n_fallbacks
                report.n_retries += client.stats.n_retries
                report.n_reconnects += client.stats.n_reconnects
                report.n_timeouts += client.stats.n_timeouts
                report.n_dropped_measurements += client.stats.n_dropped_measurements
                report.n_sheds += client.stats.n_sheds
            report.n_degraded = controller.admission.n_degraded
            report.n_policy_errors = controller.n_policy_errors
            if controller.faults is not None:
                report.n_faults_injected = controller.faults.n_faults_injected
            if controller.store is not None:
                report.n_wal_records = controller.store.wal.last_seq
    return report


def run_testbed(config: TestbedConfig | None = None) -> TestbedReport:
    """Run the full §5.5 deployment experiment; blocking convenience API.

    With ``observe=True`` the run executes under an enabled observability
    scope: assign-path spans and latency histograms land in the
    controller's registry and the scraped ``report.metrics_text``.
    """
    config = config or TestbedConfig()
    with obs_runtime.enabled_scope(config.observe or obs_runtime.enabled):
        return asyncio.run(_run_async(config))
