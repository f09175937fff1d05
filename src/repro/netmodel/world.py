"""The ``World``: ground-truth network performance for every relaying option.

This is the substitute for the Internet underneath the 430M-call Skype
trace.  It answers three questions, deterministically given a seed:

1. *What can a call do?*  ``options_for_pair`` enumerates the direct path,
   bounce relays and transit relay pairs available to an AS pair
   (geographically plausible candidates, 10-25 per pair, matching the
   9-20 options per pair of the paper's testbed).
2. *What is truly best?*  ``true_mean`` gives the ground-truth mean
   performance of an option on a day -- this is what the oracle of §3.2
   sees and what tomography accuracy is measured against.
3. *What does one call experience?*  ``sample_call`` draws a fresh
   realisation for a call assigned to an option, implementing the §5.1
   replay semantics (same pair + option + day => same distribution).

Paths compose from segments (see :mod:`repro.netmodel.segments`); per-call
client effects (wireless last hop, per-prefix offsets) are layered on top
and affect *all* options equally -- relaying cannot fix a bad last mile,
which is why domestic improvement saturates in Figure 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.netmodel.dynamics import (
    ACCESS_REGIME,
    PUBLIC_WAN_REGIME,
    STABLE_REGIME,
    RegimeProcess,
    diurnal_tilt,
)
from repro.netmodel.geo import GeoPoint, propagation_rtt_ms
from repro.netmodel.metrics import PathMetrics, linear_to_loss, loss_to_linear
from repro.netmodel.options import DIRECT, OptionKind, RelayOption, RelayOutage
from repro.netmodel.segments import (
    NoiseConfig,
    SegmentModel,
    heavy_tailed_inflation,
)
from repro.netmodel.topology import Topology, TopologyConfig, build_topology

__all__ = [
    "WorldConfig",
    "RelayOutage",
    "World",
    "OptionFilteredWorld",
    "restrict_relays",
    "without_transit",
    "build_world",
]

# Integer tags mixing segment kind into per-segment RNG seeds.
_KIND_ACCESS = 1
_KIND_WAN = 2
_KIND_INTER = 3
_KIND_DIRECT = 4
_KIND_PREFIX = 5
_KIND_RESIDUAL = 6
_KIND_REGIME_OFFSET = 100


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """All knobs of the synthetic world.

    The RTT/loss/jitter constants below were calibrated so that the
    direct-path population reproduces Figure 2 of the paper: roughly 15%
    of calls beyond each poor-performance threshold (320 ms / 1.2% / 12 ms)
    with medians in a plausible range.
    """

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    n_days: int = 60
    seed: int = 7

    # --- candidate relaying options per pair ---
    n_bounce_near: int = 3  # nearest relays to each endpoint offered as bounce
    n_bounce_mid: int = 2  # plus relays nearest the pair midpoint
    n_transit_near: int = 3  # transit = (near-src relays) x (near-dst relays)

    # --- direct (BGP default) path model ---
    direct_inflation_median_domestic: float = 2.00
    direct_inflation_median_intl: float = 1.95
    direct_inflation_sigma_domestic: float = 0.30
    direct_inflation_sigma_intl: float = 0.28
    #: Probability that a default route is pathological (circuitous
    #: detours, overloaded transit); multiplies inflation by 2.5-6x.
    direct_pathological_prob: float = 0.05
    direct_base_rtt_ms: float = 16.0  # fixed per-path processing/serialisation
    direct_loss_scale: float = 0.0008  # exponential mean of base loss
    direct_loss_factor_intl: tuple[float, float] = (2.2, 3.5)  # (base, per-poorness)
    direct_loss_factor_domestic: tuple[float, float] = (0.8, 1.2)
    direct_jitter_base_ms: float = 1.0
    direct_jitter_per_rtt: float = 0.013

    # --- AS <-> relay public WAN segments (well-peered cloud on-ramps) ---
    wan_inflation_median: float = 1.10
    #: Extra inflation per 20,000 km of great-circle distance: long public
    #: paths to a far relay degrade, which is what makes transit-through-
    #: the-backbone beat bouncing for long-haul pairs (§5.2).
    wan_inflation_distance: float = 0.80
    wan_inflation_sigma: float = 0.16
    wan_pathological_prob: float = 0.01
    wan_base_rtt_ms: float = 1.0
    wan_loss_scale: float = 0.0004
    wan_jitter_base_ms: float = 0.5
    wan_jitter_per_rtt: float = 0.006

    # --- private inter-relay backbone ---
    inter_inflation: float = 1.05
    inter_base_rtt_ms: float = 0.5
    inter_loss_rate: float = 0.0001
    inter_jitter_ms: float = 0.3

    # --- access (last mile) ---
    access_rtt_base_ms: float = 3.0
    access_rtt_quality_ms: float = 12.0  # extra at access_quality = 0
    access_loss_base: float = 0.00015
    access_loss_quality: float = 0.0010
    access_jitter_base_ms: float = 0.4
    access_jitter_quality_ms: float = 2.0

    # --- per-call client effects ---
    wireless_rtt_ms_mean: float = 6.0
    wireless_loss_mean: float = 0.0006
    wireless_jitter_ms_mean: float = 1.2
    #: Bufferbloat episodes on the wireless last hop: with this per-leg
    #: probability a call suffers a large self-congestion delay/loss/jitter
    #: penalty that NO relaying choice can remove.  This is the paper's
    #: "in cases of a poor last-hop network, no relaying strategy can
    #: help" population (Section 2.2), sized so the oracle removes roughly
    #: half of poor calls (Figure 8b's up-to-53%), not all of them.
    wireless_spike_prob: float = 0.10
    wireless_spike_rtt_ms: float = 200.0
    wireless_spike_loss: float = 0.010
    wireless_spike_jitter_ms: float = 8.0
    prefix_sigma: float = 0.10  # per-prefix static offset (lognormal sigma)
    #: Static per-(pair, relayed-option) path residuals: real relay paths
    #: are not exactly the sum of their client<->relay segments (peering
    #: points, intra-provider routing, asymmetric last-AS hops).  These
    #: lognormal factors break the linearity tomography assumes, giving it
    #: the error profile of the paper's Section 5.3 (most predictions within
    #: ~20%, a tail off by 50%+), and make per-pair observation genuinely
    #: more informative than stitching.
    residual_rtt_sigma: float = 0.13
    residual_loss_sigma: float = 0.55
    residual_jitter_sigma: float = 0.35

    # --- relay outages (robustness experiments) ---
    #: Metrics experienced by a call assigned to an option whose relay is
    #: down: the media session effectively blackholes (total loss, a long
    #: timeout-like delay) until the client gives up.
    outage_rtt_ms: float = 3000.0
    outage_loss_rate: float = 1.0
    outage_jitter_ms: float = 60.0

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise ValueError(f"n_days must be >= 1: {self.n_days}")
        if self.n_bounce_near < 1 or self.n_transit_near < 0 or self.n_bounce_mid < 0:
            raise ValueError("candidate counts must be positive")


class World:
    """Ground-truth network performance oracle for the synthetic Internet.

    Segments are created lazily but deterministically: each segment's
    parameters and regime trajectory derive from an RNG seeded by the
    world seed and the segment's identity, so access order never changes
    the world.
    """

    def __init__(self, config: WorldConfig, topology: Topology) -> None:
        self.config = config
        self.topology = topology
        self._access: dict[int, SegmentModel] = {}
        self._wan: dict[tuple[int, int], SegmentModel] = {}
        self._inter: dict[tuple[int, int], SegmentModel] = {}
        self._direct: dict[tuple[int, int], SegmentModel] = {}
        self._options_cache: dict[tuple[int, int], list[RelayOption]] = {}
        self._prefix_cache: dict[tuple[int, int], tuple[float, float, float]] = {}
        self._residual_cache: dict[tuple, tuple[float, float, float]] = {}
        self._plans: dict[tuple, tuple] = {}
        self._default_noise = NoiseConfig()
        self._inter_noise = NoiseConfig(rtt_sigma=0.05, loss_sigma=0.3, jitter_sigma=0.15)
        self._outages: list[RelayOutage] = []

    # ------------------------------------------------------------------
    # Relay outages (robustness experiments)
    # ------------------------------------------------------------------

    @property
    def outages(self) -> tuple[RelayOutage, ...]:
        """The scheduled relay outages, in insertion order."""
        return tuple(self._outages)

    def add_outage(self, outage: RelayOutage) -> None:
        """Schedule ``outage``; its relay must exist in the topology."""
        if outage.relay_id not in set(self.topology.relay_ids):
            raise ValueError(f"unknown relay id: {outage.relay_id}")
        self._outages.append(outage)

    def clear_outages(self) -> None:
        self._outages.clear()

    def relays_down_at(self, t_hours: float) -> frozenset[int]:
        """Relay ids with an active outage at ``t_hours``."""
        return frozenset(
            o.relay_id for o in self._outages if o.active_at(t_hours)
        )

    def option_available(self, option: RelayOption, t_hours: float) -> bool:
        """False when any relay the option uses is down at ``t_hours``."""
        if not self._outages or not option.is_relayed:
            return True
        relays = (option.ingress, option.egress)
        for outage in self._outages:
            if outage.relay_id in relays and outage.active_at(t_hours):
                return False
        return True

    def live_options_for_pair(
        self, src_asn: int, dst_asn: int, t_hours: float
    ) -> list[RelayOption]:
        """``options_for_pair`` minus options riding a down relay."""
        return [
            o
            for o in self.options_for_pair(src_asn, dst_asn)
            if self.option_available(o, t_hours)
        ]

    def _outage_metrics(self) -> PathMetrics:
        cfg = self.config
        return PathMetrics(
            rtt_ms=cfg.outage_rtt_ms,
            loss_rate=cfg.outage_loss_rate,
            jitter_ms=cfg.outage_jitter_ms,
        )

    # ------------------------------------------------------------------
    # Segment construction (lazy, deterministic)
    # ------------------------------------------------------------------

    def _rng_for(self, kind: int, a: int, b: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.config.seed, kind, a, b])

    def access_segment(self, asn: int) -> SegmentModel:
        """Last-mile segment of one AS (shared by every path of its calls)."""
        seg = self._access.get(asn)
        if seg is None:
            cfg = self.config
            asys = self.topology.as_of(asn)
            rng = self._rng_for(_KIND_ACCESS, asn)
            poorness = 1.0 - asys.access_quality
            base = PathMetrics(
                rtt_ms=cfg.access_rtt_base_ms
                + cfg.access_rtt_quality_ms * poorness * float(rng.uniform(0.6, 1.4)),
                loss_rate=cfg.access_loss_base
                + cfg.access_loss_quality * poorness * float(rng.uniform(0.4, 1.6)),
                jitter_ms=cfg.access_jitter_base_ms
                + cfg.access_jitter_quality_ms * poorness * float(rng.uniform(0.5, 1.5)),
            )
            regime = RegimeProcess.sample(ACCESS_REGIME, cfg.n_days, rng)
            seg = SegmentModel(
                name=f"access({asn})", base=base, regime=regime, noise=self._default_noise
            )
            self._access[asn] = seg
        return seg

    def wan_segment(self, asn: int, relay_id: int) -> SegmentModel:
        """Public-WAN segment between an AS and a managed relay."""
        key = (asn, relay_id)
        seg = self._wan.get(key)
        if seg is None:
            cfg = self.config
            asys = self.topology.as_of(asn)
            relay = self.topology.relay_of(relay_id)
            country = self.topology.countries[asys.country]
            rng = self._rng_for(_KIND_WAN, asn, relay_id)
            distance_km = asys.location.distance_km(relay.location)
            prop = propagation_rtt_ms(asys.location, relay.location)
            median = (
                cfg.wan_inflation_median
                + 0.30 * (1.0 - country.infra_quality)
                + cfg.wan_inflation_distance * distance_km / 20_000.0
            )
            inflation = heavy_tailed_inflation(rng, median, cfg.wan_inflation_sigma)
            if rng.random() < cfg.wan_pathological_prob:
                inflation *= float(rng.uniform(2.0, 4.0))
            rtt = cfg.wan_base_rtt_ms + prop * inflation
            loss = float(rng.exponential(cfg.wan_loss_scale)) * (
                1.0 + 1.5 * (1.0 - country.infra_quality)
            )
            jitter = cfg.wan_jitter_base_ms + cfg.wan_jitter_per_rtt * rtt * float(
                rng.uniform(0.5, 1.5)
            )
            base = PathMetrics(rtt_ms=rtt, loss_rate=min(loss, 0.5), jitter_ms=jitter)
            regime = RegimeProcess.sample(PUBLIC_WAN_REGIME, cfg.n_days, rng)
            seg = SegmentModel(
                name=f"wan({asn},{relay_id})",
                base=base,
                regime=regime,
                noise=self._default_noise,
            )
            self._wan[key] = seg
        return seg

    def inter_segment(self, r1: int, r2: int) -> SegmentModel:
        """Private backbone segment between two relays (symmetric)."""
        key = (min(r1, r2), max(r1, r2))
        if r1 == r2:
            raise ValueError("inter-relay segment needs two distinct relays")
        seg = self._inter.get(key)
        if seg is None:
            cfg = self.config
            loc1 = self.topology.relay_of(key[0]).location
            loc2 = self.topology.relay_of(key[1]).location
            rng = self._rng_for(_KIND_INTER, key[0], key[1])
            prop = propagation_rtt_ms(loc1, loc2)
            base = PathMetrics(
                rtt_ms=cfg.inter_base_rtt_ms + prop * cfg.inter_inflation,
                loss_rate=cfg.inter_loss_rate,
                jitter_ms=cfg.inter_jitter_ms,
            )
            regime = RegimeProcess.sample(STABLE_REGIME, cfg.n_days, rng)
            seg = SegmentModel(
                name=f"inter({key[0]},{key[1]})",
                base=base,
                regime=regime,
                noise=self._inter_noise,
                diurnal_amplitude=0.02,
            )
            self._inter[key] = seg
        return seg

    def direct_segment(self, src_asn: int, dst_asn: int) -> SegmentModel:
        """BGP default-path WAN segment between two ASes (symmetric)."""
        key = (min(src_asn, dst_asn), max(src_asn, dst_asn))
        seg = self._direct.get(key)
        if seg is None:
            cfg = self.config
            a1 = self.topology.as_of(key[0])
            a2 = self.topology.as_of(key[1])
            q1 = self.topology.countries[a1.country].infra_quality
            q2 = self.topology.countries[a2.country].infra_quality
            worst_quality = min(q1, q2)
            international = a1.country != a2.country
            rng = self._rng_for(_KIND_DIRECT, key[0], key[1])
            prop = propagation_rtt_ms(a1.location, a2.location)
            if international:
                median = cfg.direct_inflation_median_intl + 0.6 * (1.0 - worst_quality)
                sigma = cfg.direct_inflation_sigma_intl
                base_f, poor_f = cfg.direct_loss_factor_intl
            else:
                median = cfg.direct_inflation_median_domestic + 0.3 * (1.0 - worst_quality)
                sigma = cfg.direct_inflation_sigma_domestic
                base_f, poor_f = cfg.direct_loss_factor_domestic
            loss_factor = base_f + poor_f * (1.0 - worst_quality)
            inflation = heavy_tailed_inflation(rng, median, sigma)
            detour_ms = 0.0
            if rng.random() < cfg.direct_pathological_prob:
                # Pathological default route: a long absolute detour (e.g.
                # hairpinning through another continent) plus inflation.
                # Gives domestic pairs a real (if small) chance of poor
                # RTT too, as in Figure 4a.
                inflation *= float(rng.uniform(2.0, 4.0))
                detour_ms = float(rng.uniform(40.0, 250.0))
            rtt = cfg.direct_base_rtt_ms + prop * inflation + detour_ms
            loss = float(rng.exponential(cfg.direct_loss_scale)) * loss_factor
            jitter = cfg.direct_jitter_base_ms + cfg.direct_jitter_per_rtt * rtt * float(
                rng.uniform(0.5, 1.5)
            )
            base = PathMetrics(rtt_ms=rtt, loss_rate=min(loss, 0.5), jitter_ms=jitter)
            regime = RegimeProcess.sample(PUBLIC_WAN_REGIME, cfg.n_days, rng)
            seg = SegmentModel(
                name=f"direct({key[0]},{key[1]})",
                base=base,
                regime=regime,
                noise=self._default_noise,
            )
            self._direct[key] = seg
        return seg

    # ------------------------------------------------------------------
    # Relaying options and path composition
    # ------------------------------------------------------------------

    def options_for_pair(self, src_asn: int, dst_asn: int) -> list[RelayOption]:
        """Candidate relaying options for an (ordered) AS pair.

        Direct path first, then bounce relays near either endpoint or the
        pair midpoint, then transit pairs combining near-source ingress
        with near-destination egress relays.  The same physical option set
        is returned for both orderings of the pair (with transit options
        oriented source-side first).
        """
        key = (src_asn, dst_asn)
        cached = self._options_cache.get(key)
        if cached is not None:
            return cached
        topo = self.topology
        cfg = self.config
        src_loc = topo.as_of(src_asn).location
        dst_loc = topo.as_of(dst_asn).location
        near_src = topo.nearest_relays(src_loc, max(cfg.n_bounce_near, cfg.n_transit_near))
        near_dst = topo.nearest_relays(dst_loc, max(cfg.n_bounce_near, cfg.n_transit_near))
        midpoint = GeoPoint(
            (src_loc.lat + dst_loc.lat) / 2.0, _mid_longitude(src_loc.lon, dst_loc.lon)
        )
        near_mid = topo.nearest_relays(midpoint, cfg.n_bounce_mid)

        bounce_ids: list[int] = []
        for rid in (
            near_src[: cfg.n_bounce_near] + near_dst[: cfg.n_bounce_near] + near_mid
        ):
            if rid not in bounce_ids:
                bounce_ids.append(rid)

        options: list[RelayOption] = [DIRECT]
        options.extend(RelayOption.bounce(rid) for rid in bounce_ids)
        for r1 in near_src[: cfg.n_transit_near]:
            for r2 in near_dst[: cfg.n_transit_near]:
                if r1 != r2:
                    options.append(RelayOption.transit(r1, r2))
        self._options_cache[key] = options
        return options

    def path_segments(
        self, src_asn: int, dst_asn: int, option: RelayOption
    ) -> list[SegmentModel]:
        """The ordered chain of segments a call takes under ``option``."""
        access = [self.access_segment(src_asn)]
        if option.kind is OptionKind.DIRECT:
            access.append(self.direct_segment(src_asn, dst_asn))
        elif option.kind is OptionKind.BOUNCE:
            assert option.ingress is not None
            access.append(self.wan_segment(src_asn, option.ingress))
            access.append(self.wan_segment(dst_asn, option.ingress))
        else:
            assert option.ingress is not None and option.egress is not None
            access.append(self.wan_segment(src_asn, option.ingress))
            access.append(self.inter_segment(option.ingress, option.egress))
            access.append(self.wan_segment(dst_asn, option.egress))
        access.append(self.access_segment(dst_asn))
        return access

    def path_residual(
        self, src_asn: int, dst_asn: int, option: RelayOption
    ) -> tuple[float, float, float]:
        """Static (rtt, linear-loss, jitter) multipliers of one relay path.

        Captures everything about a concrete (pair, option) path that is
        NOT additive over its client<->relay segments.  Direct paths have
        no residual (their segment is already pair-specific).  Symmetric
        under pair reversal, like the underlying routes.
        """
        if not option.is_relayed:
            return (1.0, 1.0, 1.0)
        if src_asn > dst_asn:
            src_asn, dst_asn = dst_asn, src_asn
            option = option.reversed()
        key = (src_asn, dst_asn, option.kind.value, option.ingress, option.egress)
        factor = self._residual_cache.get(key)
        if factor is None:
            cfg = self.config
            rng = np.random.default_rng(
                [cfg.seed, _KIND_RESIDUAL, src_asn, dst_asn,
                 option.ingress or 0, option.egress or 0]
            )
            factor = (
                float(rng.lognormal(0.0, cfg.residual_rtt_sigma)),
                float(rng.lognormal(0.0, cfg.residual_loss_sigma)),
                float(rng.lognormal(0.0, cfg.residual_jitter_sigma)),
            )
            self._residual_cache[key] = factor
        return factor

    def _plan(self, src_asn: int, dst_asn: int, option: RelayOption) -> tuple:
        """The compiled path of ``option``: ``(segments, n_draws, residual)``.

        What a (pair, option) is on every day: its segment chain, the noise
        draws one sample consumes (one per non-zero sigma) and its residual
        -- ``None`` for the identity, which is skipped, not multiplied in
        (``linear_to_loss(loss_to_linear(x))`` is not exactly ``x``).
        """
        # The relay ids determine the kind: none, one twice, or two.
        key = (src_asn, dst_asn, option.ingress, option.egress)
        plan = self._plans.get(key)
        if plan is None:
            segments = tuple(self.path_segments(src_asn, dst_asn, option))
            n_draws = sum(
                (seg.noise.rtt_sigma != 0.0)
                + (seg.noise.loss_sigma != 0.0)
                + (seg.noise.jitter_sigma != 0.0)
                for seg in segments
            )
            residual = self.path_residual(src_asn, dst_asn, option)
            plan = self._plans[key] = (
                segments,
                n_draws,
                None if residual == (1.0, 1.0, 1.0) else residual,
            )
        return plan

    def true_mean(
        self, src_asn: int, dst_asn: int, option: RelayOption, day: int
    ) -> PathMetrics:
        """Ground-truth mean performance of ``option`` on ``day``.

        This is what the oracle of §3.2 ranks options by.  Client-level
        effects (wireless, prefix offsets) are excluded: they are common
        to all options of a call and cannot change the ranking.  Path
        residuals ARE included -- they are real properties of the path.
        """
        segments, _, residual = self._plan(src_asn, dst_asn, option)
        composed = PathMetrics.compose(seg.mean_on_day(day) for seg in segments)
        return composed if residual is None else composed.scaled(*residual)

    def _walk(
        self, plan: tuple, t_hours: float, rng: np.random.Generator
    ) -> tuple[float, float, float]:
        """One draw of a compiled path as bare ``(rtt, loss, jitter)``.

        This is ``PathMetrics.compose(seg.sample(t_hours, rng) for seg in
        segments)`` plus the residual: the same draws and the same float
        operations, both in the same order, so the same bits -- without the
        per-segment objects.  The noise comes as one ``standard_normal``
        block (``rng.lognormal(mu, s)`` is ``exp(mu + s * z)``), and ``exp``
        stays ``math.exp`` because ``np.exp`` rounds differently.  Every
        factor is positive by construction, so the per-segment range checks
        cannot fire; the caller validates the finished triple.
        """
        segments, n_draws, residual = plan
        day = int(t_hours // 24.0)
        if day < 0:
            raise ValueError(f"day must be >= 0: {day}")
        tilt = diurnal_tilt(t_hours)
        z = rng.standard_normal(n_draws).tolist() if n_draws else ()
        i = 0
        exp, expm1 = math.exp, math.expm1
        rtt = jitter = 0.0
        survival = 1.0
        for seg in segments:
            rows, amplitude, floor, rtt_mu, rtt_s, loss_mu, loss_s, jit_mu, jit_s = seg.table
            _, mean_rtt, mean_loss, mean_jitter = rows[day] if day < len(rows) else rows[-1]
            load = 1.0 + amplitude * tilt
            seg_rtt = mean_rtt * load
            if rtt_s:
                seg_rtt *= exp(rtt_mu + rtt_s * z[i])
                i += 1
            rtt += floor if floor > seg_rtt else seg_rtt
            seg_loss = mean_loss * load
            if loss_s:
                seg_loss *= exp(loss_mu + loss_s * z[i])
                i += 1
            survival *= 1.0 + expm1(-seg_loss)
            seg_jitter = mean_jitter * load
            if jit_s:
                seg_jitter *= exp(jit_mu + jit_s * z[i])
                i += 1
            jitter += seg_jitter
        loss = 1.0 - survival
        if residual is not None:
            rtt *= residual[0]
            loss = linear_to_loss(loss_to_linear(loss) * residual[1])
            jitter *= residual[2]
        return rtt, loss, jitter

    def sample_path(
        self,
        src_asn: int,
        dst_asn: int,
        option: RelayOption,
        t_hours: float,
        rng: np.random.Generator,
    ) -> PathMetrics:
        """Draw one call's realised path performance (no client effects)."""
        return PathMetrics(*self._walk(self._plan(src_asn, dst_asn, option), t_hours, rng))

    # ------------------------------------------------------------------
    # Client-level effects
    # ------------------------------------------------------------------

    def prefix_factor(self, asn: int, prefix: int) -> tuple[float, float, float]:
        """Static (rtt, linear-loss, jitter) multipliers for one prefix.

        Models sub-AS heterogeneity: different prefixes of an AS sit on
        slightly different infrastructure.  Used by the spatial-granularity
        study (Figure 17a).
        """
        key = (asn, prefix)
        factor = self._prefix_cache.get(key)
        if factor is None:
            rng = self._rng_for(_KIND_PREFIX, asn, prefix)
            sigma = self.config.prefix_sigma
            factor = (
                float(rng.lognormal(-0.5 * sigma * sigma, sigma)),
                float(rng.lognormal(-0.5 * sigma * sigma, 2.0 * sigma)),
                float(rng.lognormal(-0.5 * sigma * sigma, 1.5 * sigma)),
            )
            self._prefix_cache[key] = factor
        return factor

    def _wireless_extra(
        self, asn: int, rng: np.random.Generator
    ) -> tuple[float, float, float]:
        cfg = self.config
        quality = self.topology.as_of(asn).access_quality
        scale = 1.0 + 1.5 * (1.0 - quality)
        # ``rng.exponential(m)`` is ``m * standard_exponential()``.
        e_rtt, e_loss, e_jitter = rng.standard_exponential(3).tolist()
        rtt = cfg.wireless_rtt_ms_mean * scale * e_rtt
        loss = cfg.wireless_loss_mean * scale * e_loss
        jitter = cfg.wireless_jitter_ms_mean * scale * e_jitter
        if rng.random() < cfg.wireless_spike_prob * scale / 2.0:
            # Bufferbloat episode: large correlated delay/loss/jitter hit.
            e_rtt, e_loss, e_jitter = rng.standard_exponential(3).tolist()
            rtt += cfg.wireless_spike_rtt_ms * e_rtt
            loss += cfg.wireless_spike_loss * e_loss
            jitter += cfg.wireless_spike_jitter_ms * e_jitter
        return rtt, min(loss, 0.5), jitter

    def sample_wireless_extra(self, asn: int, rng: np.random.Generator) -> PathMetrics:
        """Extra last-hop degradation for a call leg on a wireless client.

        Applied identically to every relaying option of the call, so no
        relay choice can remove it (the paper's §2.2 caveat).
        """
        return PathMetrics(*self._wireless_extra(asn, rng))

    def sample_call(
        self,
        src_asn: int,
        dst_asn: int,
        option: RelayOption,
        t_hours: float,
        rng: np.random.Generator,
        *,
        src_wireless: bool = False,
        dst_wireless: bool = False,
        src_prefix: int = 0,
        dst_prefix: int = 0,
    ) -> PathMetrics:
        """Full per-call sample: path + wireless extras + prefix offsets.

        A call assigned to an option whose relay is down experiences the
        configured outage metrics (a blackholed media session) -- no last
        mile or prefix effect can make it better or worse -- and consumes
        no draw.  Otherwise the draws are, in order: per segment in path
        order rtt, loss, jitter (none for a zero sigma); then the source's
        wireless extra; then the destination's.
        """
        if not self.option_available(option, t_hours):
            return self._outage_metrics()
        rtt, loss, jitter = self._walk(
            self._plan(src_asn, dst_asn, option), t_hours, rng
        )
        # The path and its wireless extras compose as segments do.
        survival = 1.0 - loss
        for asn, wireless in ((src_asn, src_wireless), (dst_asn, dst_wireless)):
            if wireless:
                extra = self._wireless_extra(asn, rng)
                rtt += extra[0]
                survival *= 1.0 - extra[1]
                jitter += extra[2]
        f_src = self.prefix_factor(src_asn, src_prefix)
        f_dst = self.prefix_factor(dst_asn, dst_prefix)
        return PathMetrics(
            rtt_ms=rtt * f_src[0] * f_dst[0],
            loss_rate=linear_to_loss(
                loss_to_linear(1.0 - survival) * f_src[1] * f_dst[1]
            ),
            jitter_ms=jitter * f_src[2] * f_dst[2],
        )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def best_option(
        self, src_asn: int, dst_asn: int, day: int, metric: str, options: list[RelayOption] | None = None
    ) -> RelayOption:
        """The oracle's pick: lowest true mean for ``metric`` on ``day``."""
        candidates = options if options is not None else self.options_for_pair(src_asn, dst_asn)
        if not candidates:
            raise ValueError("no candidate options")
        return min(
            candidates, key=lambda opt: self.true_mean(src_asn, dst_asn, opt, day).get(metric)
        )


class OptionFilteredWorld:
    """A view of a world offering only a subset of relaying options.

    The underlying ground truth is unchanged; ``options_for_pair`` filters
    the wrapped world's candidates through ``predicate``.  The direct path
    is always retained so every pair keeps at least one option.  Used by
    the relay-deployment study (Figure 17c) and the transit-vs-bounce
    comparison (§5.2).  Everything else delegates to the wrapped world.
    """

    def __init__(self, world: World, predicate) -> None:
        self._world = world
        self._predicate = predicate
        self._options_cache: dict[tuple[int, int], list[RelayOption]] = {}

    def options_for_pair(self, src_asn: int, dst_asn: int) -> list[RelayOption]:
        key = (src_asn, dst_asn)
        cached = self._options_cache.get(key)
        if cached is None:
            cached = [
                option
                for option in self._world.options_for_pair(src_asn, dst_asn)
                if option.kind is OptionKind.DIRECT or self._predicate(option)
            ]
            self._options_cache[key] = cached
        return cached

    def __getattr__(self, name: str):
        return getattr(self._world, name)


def restrict_relays(world: World, allowed_relays: set[int]) -> OptionFilteredWorld:
    """A world view where only ``allowed_relays`` are deployed (Fig 17c)."""
    unknown = set(allowed_relays) - set(world.topology.relay_ids)
    if unknown:
        raise ValueError(f"unknown relay ids: {sorted(unknown)}")
    allowed = frozenset(allowed_relays)
    return OptionFilteredWorld(
        world, lambda option: all(rid in allowed for rid in option.relay_ids())
    )


def without_transit(world: World) -> OptionFilteredWorld:
    """A world view with transit relaying disabled (§5.2 comparison)."""
    return OptionFilteredWorld(world, lambda option: option.kind is OptionKind.BOUNCE)


def _mid_longitude(lon1: float, lon2: float) -> float:
    """Midpoint longitude going the short way around the globe."""
    diff = (lon2 - lon1 + 180.0) % 360.0 - 180.0
    mid = lon1 + diff / 2.0
    return (mid + 180.0) % 360.0 - 180.0


def build_world(config: WorldConfig | None = None) -> World:
    """Build a :class:`World` (and its topology) from ``config``."""
    config = config or WorldConfig()
    topology = build_topology(config.topology)
    return World(config=config, topology=topology)
