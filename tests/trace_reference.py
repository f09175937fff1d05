"""The trace generator, written out with scalar draws.

This is what ``repro.workload.generate_trace`` *means*: the population's
AS picks are ``rng.choice(len(asns), p=weights)``, one call at a time, and
each call's user ids, prefixes and flags are scalar ``rng.integers(n)`` and
``rng.random()`` draws, in field order.  It is the generator as it stood
before those draws were read from the bit generator's raw words, kept
verbatim.  ``generate_trace`` must return the *same calls*, field for field
and type for type (``tests/test_trace_reader.py``; ``scripts/ci_check.py``
times one against the other).
"""

from __future__ import annotations

import numpy as np

from repro.netmodel.topology import Topology
from repro.telephony.call import Call
from repro.workload.generator import WorkloadConfig
from repro.workload.trace import TraceDataset

__all__ = ["reference_generate_trace"]


#: Hourly arrival weights (local-time-free simplification): calls ramp up
#: through the day and peak in the evening.
_HOURLY_WEIGHTS = np.array(
    [2, 1, 1, 1, 1, 2, 3, 5, 7, 8, 9, 9, 9, 9, 9, 9, 10, 11, 12, 13, 13, 11, 7, 4],
    dtype=float,
)

#: Day-of-week arrival weights (day 0 = Monday): personal calling peaks on
#: the weekend, consistent with consumer VoIP traffic patterns.
_WEEKDAY_WEIGHTS = np.array([0.95, 0.93, 0.94, 0.97, 1.02, 1.12, 1.07])


def _pick_weighted_as(rng: np.random.Generator, asns: np.ndarray, weights: np.ndarray) -> int:
    return int(asns[rng.choice(len(asns), p=weights)])


def _build_pair_population(
    topology: Topology, config: WorkloadConfig, rng: np.random.Generator
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Sample the AS-pair population and its per-pair volume weights."""
    asns = np.array(topology.asns)
    country_weight = np.array(
        [topology.countries[topology.ases[a].country].call_weight for a in asns]
    )
    as_weights = country_weight / country_weight.sum()

    by_country: dict[str, np.ndarray] = {}
    for code, members in topology.country_ases.items():
        if members:
            by_country[code] = np.array(members)

    # Sample each category (intra-AS / international / domestic inter-AS)
    # to its target count separately, so deduplication inside the small
    # domestic pools cannot skew the mix towards international pairs.
    n_intra = int(round(config.frac_intra_as * config.n_pairs))
    n_international = int(round(config.frac_international * config.n_pairs))
    n_domestic = max(0, config.n_pairs - n_intra - n_international)

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def try_add(src: int, dst: int) -> bool:
        key = (min(src, dst), max(src, dst))
        if key in seen:
            return False
        seen.add(key)
        pairs.append((src, dst))
        return True

    def fill(target: int, sampler) -> None:
        added = 0
        attempts = 0
        max_attempts = max(100, target * 100)
        while added < target and attempts < max_attempts:
            attempts += 1
            pair = sampler()
            if pair is not None and try_add(*pair):
                added += 1

    def sample_intra() -> tuple[int, int] | None:
        src = _pick_weighted_as(rng, asns, as_weights)
        return (src, src)

    def sample_international() -> tuple[int, int] | None:
        src = _pick_weighted_as(rng, asns, as_weights)
        for _ in range(20):
            dst = _pick_weighted_as(rng, asns, as_weights)
            if topology.ases[dst].country != topology.ases[src].country:
                return (src, dst)
        return None

    def sample_domestic() -> tuple[int, int] | None:
        src = _pick_weighted_as(rng, asns, as_weights)
        members = by_country[topology.ases[src].country]
        if len(members) < 2:
            return None
        dst = src
        while dst == src:
            dst = int(members[rng.integers(len(members))])
        return (src, dst)

    fill(n_intra, sample_intra)
    fill(n_international, sample_international)
    fill(n_domestic, sample_domestic)

    # Zipf-like volumes assigned in random order across pairs so the mix
    # fractions are preserved among heavy and light pairs alike.
    ranks = np.arange(1, len(pairs) + 1, dtype=float)
    weights = ranks ** (-config.volume_zipf_s)
    rng.shuffle(weights)
    weights /= weights.sum()

    # Rescale volume mass per category so the *call*-level mix hits the
    # configured fractions even when a category's distinct-pair pool
    # saturates (e.g. intra-AS pairs are capped by the number of ASes).
    def category(pair: tuple[int, int]) -> str:
        src, dst = pair
        if src == dst:
            return "intra"
        if topology.ases[src].country == topology.ases[dst].country:
            return "domestic"
        return "international"

    targets = {
        "intra": config.frac_intra_as,
        "international": config.frac_international,
        "domestic": max(0.0, 1.0 - config.frac_intra_as - config.frac_international),
    }
    masses = {"intra": 0.0, "international": 0.0, "domestic": 0.0}
    categories = [category(p) for p in pairs]
    for cat, weight in zip(categories, weights):
        masses[cat] += weight
    present = {cat for cat, mass in masses.items() if mass > 0.0}
    target_total = sum(targets[cat] for cat in present)
    if target_total > 0.0:
        for i, cat in enumerate(categories):
            weights[i] *= (targets[cat] / target_total) / masses[cat]
        weights /= weights.sum()
    return pairs, weights


def reference_generate_trace(
    topology: Topology,
    config: WorkloadConfig | None = None,
    *,
    n_days: int = 60,
) -> TraceDataset:
    """Generate a chronologically sorted call trace over ``n_days``."""
    config = config or WorkloadConfig()
    rng = np.random.default_rng(config.seed)
    pairs, pair_weights = _build_pair_population(topology, config, rng)
    if not pairs:
        raise ValueError("pair population came out empty; topology too small?")

    # Per-AS user pools sized by how much traffic the AS carries.
    as_volume: dict[int, float] = {}
    for (a, b), weight in zip(pairs, pair_weights):
        as_volume[a] = as_volume.get(a, 0.0) + weight / 2.0
        as_volume[b] = as_volume.get(b, 0.0) + weight / 2.0
    total_volume = sum(as_volume.values())
    user_pool: dict[int, int] = {
        asn: max(10, int(config.users_per_as * len(as_volume) * vol / total_volume))
        for asn, vol in as_volume.items()
    }
    user_base: dict[int, int] = {}
    next_user = 0
    for asn in sorted(user_pool):
        user_base[asn] = next_user
        next_user += user_pool[asn]

    hourly = _HOURLY_WEIGHTS / _HOURLY_WEIGHTS.sum()
    day_weights = _WEEKDAY_WEIGHTS[np.arange(n_days) % 7]
    day_weights = day_weights / day_weights.sum()
    pair_idx = rng.choice(len(pairs), size=config.n_calls, p=pair_weights)
    days = rng.choice(n_days, size=config.n_calls, p=day_weights)
    hours = rng.choice(24, size=config.n_calls, p=hourly)
    minutes = rng.random(config.n_calls)
    flip = rng.random(config.n_calls) < 0.5
    durations = np.maximum(
        config.min_duration_s,
        rng.lognormal(config.duration_log_mean, config.duration_log_sigma, config.n_calls),
    )

    t_hours = days * 24.0 + hours + minutes
    order = np.argsort(t_hours, kind="stable")

    ases = topology.ases
    calls: list[Call] = []
    for call_id, i in enumerate(order):
        a, b = pairs[pair_idx[i]]
        src, dst = (b, a) if flip[i] else (a, b)
        src_as = ases[src]
        dst_as = ases[dst]
        src_user = user_base[src] + int(rng.integers(user_pool[src]))
        dst_user = user_base[dst] + int(rng.integers(user_pool[dst]))
        calls.append(
            Call(
                call_id=call_id,
                t_hours=float(t_hours[i]),
                src_asn=src,
                dst_asn=dst,
                src_country=src_as.country,
                dst_country=dst_as.country,
                src_user=src_user,
                dst_user=dst_user,
                duration_s=float(durations[i]),
                src_prefix=int(rng.integers(src_as.n_prefixes)),
                dst_prefix=int(rng.integers(dst_as.n_prefixes)),
                src_wireless=bool(rng.random() < src_as.wireless_fraction),
                dst_wireless=bool(rng.random() < dst_as.wireless_fraction),
                direct_blocked=bool(rng.random() < config.frac_direct_blocked),
            )
        )
    return TraceDataset(calls=calls, n_days=n_days, config=config)
