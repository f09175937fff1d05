"""Synthetic call-trace generator.

Builds a pair population with gravity-model weights (big markets call big
markets; a controlled international share) and Zipf-skewed per-pair call
volumes, then scatters calls over the simulation horizon with a diurnal
arrival profile.  The resulting trace has the density *skew* that §4.2 of
the paper identifies as the reason pure prediction and pure exploration
both fail: a few AS pairs carry thousands of calls, most carry a handful.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.netmodel.topology import Topology
from repro.telephony.call import Call
from repro.workload.trace import TraceDataset

__all__ = ["WorkloadConfig", "generate_trace"]


@dataclass(frozen=True, slots=True)
class WorkloadConfig:
    """Knobs of the synthetic workload.

    The default mix targets the paper's Table 1 shares: ~46.6% of calls
    international and ~80.7% inter-AS (so ~19.3% intra-AS, and the
    remaining ~34% domestic but across ASes).
    """

    n_calls: int = 100_000
    n_pairs: int = 1_500
    #: Zipf-like exponent for per-pair call volume (1.0 = classic Zipf).
    volume_zipf_s: float = 1.05
    frac_intra_as: float = 0.193
    frac_international: float = 0.466
    #: Mean users per AS at unit call volume; scales the user population.
    users_per_as: int = 400
    #: Fraction of calls whose endpoints cannot connect directly
    #: (symmetric NATs / firewalls) and must use a relay -- the population
    #: today's relays serve for connectivity (§2.1).  Defaults to 0 so the
    #: evaluation populations match the paper's default-routable focus;
    #: turn it on for connectivity studies.
    frac_direct_blocked: float = 0.0
    #: Lognormal call duration parameters (seconds).
    duration_log_mean: float = 5.1  # exp(5.1) ~ 164 s median
    duration_log_sigma: float = 1.0
    min_duration_s: float = 10.0
    seed: int = 2016

    def __post_init__(self) -> None:
        for name in ("n_calls", "n_pairs", "users_per_as"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an int >= 1: {value!r}")
        if not 0.0 <= self.frac_intra_as <= 1.0:
            raise ValueError("frac_intra_as must be in [0, 1]")
        if not 0.0 <= self.frac_international <= 1.0:
            raise ValueError("frac_international must be in [0, 1]")
        if self.frac_intra_as + self.frac_international > 1.0:
            raise ValueError("intra-AS and international fractions exceed 1")
        if self.volume_zipf_s <= 0.0:
            raise ValueError("volume_zipf_s must be > 0")
        if not 0.0 <= self.frac_direct_blocked <= 1.0:
            raise ValueError("frac_direct_blocked must be in [0, 1]")


#: Hourly arrival weights (local-time-free simplification): calls ramp up
#: through the day and peak in the evening.
_HOURLY_WEIGHTS = np.array(
    [2, 1, 1, 1, 1, 2, 3, 5, 7, 8, 9, 9, 9, 9, 9, 9, 10, 11, 12, 13, 13, 11, 7, 4],
    dtype=float,
)

#: Day-of-week arrival weights (day 0 = Monday): personal calling peaks on
#: the weekend, consistent with consumer VoIP traffic patterns.
_WEEKDAY_WEIGHTS = np.array([0.95, 0.93, 0.94, 0.97, 1.02, 1.12, 1.07])


def _weighted_picker(rng: np.random.Generator, asns: np.ndarray, weights: np.ndarray):
    """A ``pick()`` returning ``int(asns[rng.choice(len(asns), p=weights)])``.

    ``Generator.choice`` rebuilds ``cdf = p.cumsum(); cdf /= cdf[-1]`` on
    every call, then searches one ``rng.random()`` in it (``side="right"``);
    here the CDF is built once and searched with ``bisect_right``, which
    draws the same double and finds the same index."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    bounds = cdf.tolist()
    values = asns.tolist()
    random = rng.random

    def pick() -> int:
        return values[bisect_right(bounds, random())]

    return pick


#: Raw words read from the bit generator at a time by :func:`_scalar_draws`.
#: One block for the whole trace (seven words a call), held as a list,
#: raised the replay benchmark's peak RSS by ~24 MiB; a fixed chunk does not.
_RAW_CHUNK = 4096

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def _scalar_draws(rng: np.random.Generator):
    """``(integers, random)``: what scalar ``int(rng.integers(n))`` and
    ``rng.random()`` would return, in any interleaving, read from the PCG64
    bit generator's raw 64-bit words (numpy's bounded-integer algorithm,
    written out).

    * ``integers(n)`` with ``r = n - 1``: ``r == 0`` draws nothing;
      ``r < 2**32`` is Lemire's method on a 32-bit half (a fresh word gives
      its low half and buffers its high half, as PCG64's own
      ``has_uint32``/``uinteger`` do), rejecting while the product's low
      half is under ``(2**32 - 1 - r) % n`` -- at ``n == 2**32`` that is the
      bare half, which numpy returns without the multiply; anything wider
      is the 64-bit Lemire on a whole word.
    * ``random()`` is ``(word >> 11) * 2**-53``; it leaves the buffered
      half alone.

    The words are read ahead in chunks, so ``rng`` is left past the draws
    taken: use it only on a generator nobody draws from afterwards."""
    bit_generator = rng.bit_generator
    state = bit_generator.state
    has_half = bool(state["has_uint32"])
    half = state["uinteger"]
    next_word = chain.from_iterable(
        iter(lambda: bit_generator.random_raw(_RAW_CHUNK).tolist(), None)
    ).__next__

    def integers(n: int) -> int:
        nonlocal has_half, half
        r = n - 1
        if 0 < r <= _MASK32:
            while True:
                if has_half:
                    has_half = False
                    m = half * n
                else:
                    word = next_word()
                    has_half = True
                    half = word >> 32
                    m = (word & _MASK32) * n
                low = m & _MASK32
                if low >= n or low >= (_MASK32 - r) % n:
                    return m >> 32
        if r == 0:
            return 0
        if not 0 < r < 2**63:
            raise ValueError(f"integers bound out of range [1, 2**63]: {n}")
        while True:
            m = next_word() * n
            low = m & _MASK64
            if low >= n or low >= (_MASK64 - r) % n:
                return m >> 64

    def random() -> float:
        return (next_word() >> 11) * 2.0**-53

    return integers, random


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

    pick_as = _weighted_picker(rng, asns, as_weights)
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
        src = pick_as()
        return (src, src)

    def sample_international() -> tuple[int, int] | None:
        src = pick_as()
        for _ in range(20):
            dst = pick_as()
            if topology.ases[dst].country != topology.ases[src].country:
                return (src, dst)
        return None

    def sample_domestic() -> tuple[int, int] | None:
        src = pick_as()
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


def generate_trace(
    topology: Topology,
    config: WorkloadConfig | None = None,
    *,
    n_days: int = 60,
) -> TraceDataset:
    """Generate a chronologically sorted call trace over ``n_days``."""
    if isinstance(n_days, bool) or not isinstance(n_days, numbers.Integral) or n_days < 1:
        raise ValueError(f"n_days must be an int >= 1: {n_days!r}")
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

    # Per call, in this order: the two user ids, the two prefixes, the two
    # wireless flags and the blocked flag -- the scalar draws
    # ``tests/trace_reference.py`` makes, read from raw words.
    integers, random = _scalar_draws(rng)
    ases = topology.ases
    endpoints = {
        asn: (ases[asn].country, user_base[asn], pool, int(ases[asn].n_prefixes),
              float(ases[asn].wireless_fraction))
        for asn, pool in user_pool.items()
    }
    blocked = float(config.frac_direct_blocked)
    calls: list[Call] = []
    append = calls.append
    for call_id, (t, duration, k, flipped) in enumerate(
        zip(t_hours[order].tolist(), durations[order].tolist(),
            pair_idx[order].tolist(), flip[order].tolist())
    ):
        a, b = pairs[k]
        src, dst = (b, a) if flipped else (a, b)
        src_country, src_base, src_pool, src_prefixes, src_wireless = endpoints[src]
        dst_country, dst_base, dst_pool, dst_prefixes, dst_wireless = endpoints[dst]
        src_user = src_base + integers(src_pool)
        dst_user = dst_base + integers(dst_pool)
        append(
            Call(call_id, t, src, dst, src_country, dst_country, src_user, dst_user,
                 duration, integers(src_prefixes), integers(dst_prefixes),
                 random() < src_wireless, random() < dst_wireless, random() < blocked)
        )
    return TraceDataset(calls=calls, n_days=n_days, config=config)
