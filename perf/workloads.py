"""The six workloads: fixed sizes, and every input derived from ``--seed``.

The program under test never sees the seed -- only what is generated
here: (src, dst) draws, option menus, per-(pair, option) ground-truth
quality, per-call noise, the open-loop arrival schedule, and (replay)
the call trace, outage times and policy/outcome seeds.  Every
:class:`WireInputs` / :class:`ReplayInputs` carries a SHA-256 digest of
what it holds, so two runs can be shown to have had the same traffic.

Sizes live here (and are summarised in ``BENCHMARK.json``'s ``why``
lines and ``perf/README.md``); nothing is tunable from the command line
except the seed and the measured seconds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WORKLOADS",
    "WIRE_SPECS",
    "REPLAY_SPECS",
    "WireSpec",
    "ReplaySpec",
    "WireInputs",
    "ReplayInputs",
    "derive_seed",
    "N_WIRE_SEGMENTS",
    "N_OPEN_SEGMENTS",
    "OPEN_LEAD_IN_S",
    "wire_inputs",
    "replay_inputs",
]

#: name -> the one-line reason the workload exists (mirrored in BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "wire_unloaded": (
        "closed loop, 1 v2 connection x 1 caller, 21-option menu, no store: every "
        "layer is on the blocking chain and nothing queues; the latency floor and "
        "the layer-sum anchor"
    ),
    "wire_pipelined": (
        "closed loop, 2 v2 connections x 8 callers, 21-option menu, no store: "
        "saturates server and generator; codec, wake-ups, queue wait and the "
        "assign_many drain dominate"
    ),
    "wire_durable": (
        "wire_pipelined traffic with Store(fsync=batch): every request and "
        "measurement is WAL-logged before acting; then crash, restart, recover and "
        "compare fingerprints"
    ),
    "wire_overload": (
        "open loop, Poisson 2400 calls/s on 2 connections, 3-option menu, token "
        "rate 1200/s burst 256: the admission ladder degrades popular pairs and "
        "sheds the tail"
    ),
    "replay_vector": (
        "replay(via, batch_calls=2000) on the 20-country/10-relay/10-day world, "
        "600 pairs, 9000 calls per measured second: netmodel sampling plus the "
        "columnar policy path"
    ),
    "replay_gated": (
        "same world, batch_calls=1, budget=0.3, per_relay_cap=0.15, two relay "
        "outages, 6000 calls per measured second: the families that fall back to "
        "scalar _assign"
    ),
}

N_CLIENT_IDS = 64
N_PAIRS = N_CLIENT_IDS * N_CLIENT_IDS  # ordered (src, dst) pairs
ZIPF_S = 1.1
#: Pre-drawn calls per wire run; the stream wraps if a run ever outpaces it.
N_DRAWS = 160_000
#: Ground-truth option RTT means are a seeded permutation of this ladder
#: for every pair, so aggregate PNR does not depend on *which* pairs the
#: seed made popular -- only on how well the policy learns.
RTT_LADDER_MS = (150.0, 450.0)
RTT_NOISE_SIGMA = 0.08
#: Policy clock: warm-up calls fall in day 0, measured calls in day 1, so
#: the measured window runs with a predictor built from the warm-up's
#: history and never straddles a refresh boundary.
T_WARM_HOURS = 12.0
T_MEASURE_HOURS = 36.0
#: The measured window is this many equal segments, each bracketed by a
#: calibration burst (see ``calibrate.py``); every time-like metric is the
#: median of the per-segment values.
N_WIRE_SEGMENTS = 12
#: The open loop takes twice as many, half as long: its per-segment tail
#: scatters by +-30% on this box, and only more segments steady their median.
N_OPEN_SEGMENTS = 24
#: Open loop: every segment starts with this much unmeasured traffic, which
#: spends the tokens the bucket refilled during the calibration pause, so
#: the measured part sees the steady-state ladder.
OPEN_LEAD_IN_S = 0.1


def derive_seed(seed: int, label: str) -> int:
    """An independent 63-bit seed for one named input stream."""
    digest = hashlib.sha256(f"{int(seed)}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# Wire workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WireSpec:
    name: str
    loop: str  # "closed" | "open"
    n_conns: int
    callers_per_conn: int
    n_bounce: int
    n_transit: int
    slo_ms: float
    #: Closed loop: calls completed before the window opens.  Open loop:
    #: the warm-up is ``warm_seconds`` of the same arrival schedule.
    warm_calls: int = 0
    warm_seconds: float = 0.0
    rate_per_s: float = 0.0
    admission: dict | None = None
    durable: bool = False
    #: Pin generator and controller to the *same* core.  At depth 1 the two
    #: strictly alternate, so a second core buys no parallelism and only
    #: adds cross-core wake-up latency, which in a VM is the largest source
    #: of run-to-run noise (+-10% on two cores, +-3% on one).
    share_core: bool = False

    @property
    def n_segments(self) -> int:
        return N_OPEN_SEGMENTS if self.loop == "open" else N_WIRE_SEGMENTS


WIRE_SPECS: dict[str, WireSpec] = {
    "wire_unloaded": WireSpec(
        "wire_unloaded", "closed", 1, 1, 16, 4, slo_ms=5.0, warm_calls=2000, share_core=True
    ),
    "wire_pipelined": WireSpec(
        "wire_pipelined", "closed", 2, 8, 16, 4, slo_ms=50.0, warm_calls=5000
    ),
    "wire_durable": WireSpec(
        "wire_durable", "closed", 2, 8, 16, 4, slo_ms=50.0, warm_calls=5000, durable=True
    ),
    "wire_overload": WireSpec(
        "wire_overload",
        "open",
        2,
        0,
        2,
        0,
        slo_ms=100.0,
        warm_seconds=1.5,
        rate_per_s=2400.0,
        admission={
            "rate": 1200.0,
            "burst": 256.0,
            "max_queue_depth": 1024,
            "degrade_queue_depth": 256,
            "queue_timeout_s": 1.0,
        },
    ),
}


@dataclass
class WireInputs:
    """Everything one wire run feeds the controller, pre-drawn."""

    spec: WireSpec
    menu: list  # list[RelayOption]
    menu_wire: list  # the menu as wire dicts (encode_option)
    option_index: dict  # (kind, ingress, egress) -> menu index
    reverse_index: list  # menu index of each option's reversed() form
    src: list
    dst: list
    truth: list  # canonical pair index -> per-option mean RTT (ms)
    best: list  # canonical pair index -> best menu index (canonical view)
    noise: list  # per-call multiplicative RTT noise
    #: Open loop: arrival offsets (seconds from the segment's start) of the
    #: warm-up (index 0) and of each measured segment (1..n_segments).
    due: list
    policy_seed: int
    seed: int = 0
    seconds: float = 0.0
    digest: str = ""

    def rtt_ms(self, i: int, src: int, dst: int, option_idx: int) -> float:
        """Ground-truth RTT of draw ``i`` placed on ``option_idx``."""
        mean = self.truth[_pair_index(src, dst)][self.canonical_option(src, dst, option_idx)]
        return mean * self.noise[i % len(self.noise)]

    def canonical_option(self, src: int, dst: int, option_idx: int) -> int:
        # The policy keys state on the unordered pair and reverses transit
        # options for the flipped direction; the ground truth does too.
        return option_idx if src <= dst else self.reverse_index[option_idx]

    def is_best(self, src: int, dst: int, option_idx: int) -> bool:
        return self.canonical_option(src, dst, option_idx) == self.best[_pair_index(src, dst)]


def _pair_index(src: int, dst: int) -> int:
    """Row of the unordered pair in the ground-truth tables."""
    lo, hi = (src, dst) if src <= dst else (dst, src)
    return (lo - 1) * N_CLIENT_IDS + (hi - 1)


def _menu(n_bounce: int, n_transit: int) -> list:
    """direct + bounce relays + transit pairs, as ``simulation/microbench``
    builds it; transit pairs come in both orientations so the menu is
    closed under ``RelayOption.reversed()``."""
    from repro.netmodel import OptionKind, RelayOption

    if n_transit % 2:
        raise ValueError("transit options come in reversed pairs")
    menu = [RelayOption(OptionKind.DIRECT)]
    menu += [RelayOption.bounce(i) for i in range(1, n_bounce + 1)]
    for j in range(n_transit // 2):
        menu += [RelayOption.transit(j + 1, j + 2), RelayOption.transit(j + 2, j + 1)]
    return menu


def wire_inputs(name: str, seed: int, seconds: float) -> WireInputs:
    """Generate the traffic of wire workload ``name`` for ``seed``."""
    from repro.deployment import encode_option

    spec = WIRE_SPECS[name]
    menu = _menu(spec.n_bounce, spec.n_transit)
    menu_wire = [encode_option(o) for o in menu]
    option_index = {(o.kind.value, o.ingress, o.egress): i for i, o in enumerate(menu)}
    reverse_index = [
        option_index[(r.kind.value, r.ingress, r.egress)]
        for r in (o.reversed() for o in menu)
    ]
    k = len(menu)

    rng = np.random.default_rng(derive_seed(seed, f"{name}:pairs"))
    ranks = np.arange(1, N_PAIRS + 1, dtype=float)
    probs = ranks**-ZIPF_S
    probs /= probs.sum()
    popularity = rng.permutation(N_PAIRS)  # rank -> pair id
    pair_ids = popularity[rng.choice(N_PAIRS, size=N_DRAWS, p=probs)]
    src = (pair_ids // N_CLIENT_IDS + 1).astype(np.int64)
    dst = (pair_ids % N_CLIENT_IDS + 1).astype(np.int64)

    rng = np.random.default_rng(derive_seed(seed, f"{name}:truth"))
    ladder = np.linspace(RTT_LADDER_MS[0], RTT_LADDER_MS[1], k)
    truth = rng.permuted(np.tile(ladder, (N_PAIRS, 1)), axis=1)
    noise = rng.lognormal(0.0, RTT_NOISE_SIGMA, size=N_DRAWS)

    due: list = []
    if spec.loop == "open":
        rng = np.random.default_rng(derive_seed(seed, f"{name}:arrivals"))
        load_s = OPEN_LEAD_IN_S + seconds / spec.n_segments
        for horizon in [spec.warm_seconds] + [load_s] * spec.n_segments:
            n_arrivals = int(spec.rate_per_s * horizon * 1.5) + 64
            offsets = np.cumsum(rng.exponential(1.0 / spec.rate_per_s, size=n_arrivals))
            due.append(offsets[offsets < horizon])

    digest = hashlib.sha256()
    digest.update(repr((spec, seconds, RTT_LADDER_MS, RTT_NOISE_SIGMA)).encode("utf-8"))
    for array in (src, dst, truth, noise, *due):
        digest.update(np.ascontiguousarray(array).tobytes())

    return WireInputs(
        spec=spec,
        menu=menu,
        menu_wire=menu_wire,
        option_index=option_index,
        reverse_index=reverse_index,
        src=src.tolist(),
        dst=dst.tolist(),
        truth=truth.tolist(),
        best=truth.argmin(axis=1).tolist(),
        noise=noise.tolist(),
        due=[offsets.tolist() for offsets in due],
        policy_seed=derive_seed(seed, f"{name}:policy") % (2**31),
        seed=seed,
        seconds=seconds,
        digest=digest.hexdigest(),
    )


# ----------------------------------------------------------------------
# Replay workloads
# ----------------------------------------------------------------------

#: The reference instance: topology, world and pair population are the
#: benchmark's fixed dataset.  A per-seed world moves ``pnr_rtt`` by +-25%
#: (which pairs are heavy, whether their direct path is pathological),
#: which would bury any decision-quality regression; the seed instead
#: picks the calls (a subsample of the reference trace), the outage
#: times, and the policy and outcome random streams.
REF_TOPOLOGY_SEED = 20160822
REF_WORLD_SEED = 7
REF_TRACE_SEED = 2016
N_COUNTRIES = 20
N_RELAYS = 10
N_DAYS = 10
N_TRACE_PAIRS = 600
#: Share of the reference trace a seed keeps.
SUBSAMPLE = 0.9


@dataclass(frozen=True)
class ReplaySpec:
    name: str
    batch_calls: int
    #: Fixed size: calls replayed per requested second of measurement.
    calls_per_second: int
    #: Calls handed to one ``replay()`` invocation (one latency sample).
    slice_calls: int
    #: Turnaround limit of one slice for ``slo_ok_frac``.
    slo_ms: float
    policy_overrides: dict = field(default_factory=dict)
    #: (relay index, day the outage starts, duration in hours)
    outages: tuple = ()


REPLAY_SPECS: dict[str, ReplaySpec] = {
    "replay_vector": ReplaySpec(
        "replay_vector", batch_calls=2000, calls_per_second=9000, slice_calls=2000,
        slo_ms=1000.0,
    ),
    "replay_gated": ReplaySpec(
        "replay_gated", batch_calls=1, calls_per_second=6000, slice_calls=50,
        slo_ms=50.0,
        policy_overrides={"budget": 0.3, "per_relay_cap": 0.15},
        outages=((0, 3, 24.0), (3, 6, 24.0)),
    ),
}


@dataclass
class ReplayInputs:
    spec: ReplaySpec
    world: object
    trace: object
    policy_seed: int
    outcome_seed: int
    outages: list
    build_world_s: float = 0.0
    generate_trace_s: float = 0.0
    digest: str = ""


def replay_inputs(name: str, seed: int, seconds: float) -> ReplayInputs:
    """Build the world and the seeded call trace of replay workload ``name``."""
    from time import perf_counter

    from repro.deployment import RelayOutage
    from repro.netmodel import TopologyConfig, WorldConfig, build_world
    from repro.workload import TraceDataset, WorkloadConfig, generate_trace

    spec = REPLAY_SPECS[name]
    n_calls = max(spec.slice_calls, int(spec.calls_per_second * seconds))
    n_base = int(n_calls / SUBSAMPLE) + 1

    t0 = perf_counter()
    world = build_world(
        WorldConfig(
            topology=TopologyConfig(
                n_countries=N_COUNTRIES, n_relays=N_RELAYS, seed=REF_TOPOLOGY_SEED
            ),
            n_days=N_DAYS,
            seed=REF_WORLD_SEED,
        )
    )
    t1 = perf_counter()
    base = generate_trace(
        world.topology,
        WorkloadConfig(n_calls=n_base, n_pairs=N_TRACE_PAIRS, seed=REF_TRACE_SEED),
        n_days=N_DAYS,
    )
    rng = np.random.default_rng(derive_seed(seed, f"{name}:subsample"))
    keep = np.sort(rng.choice(n_base, size=n_calls, replace=False))
    trace = TraceDataset(calls=[base.calls[i] for i in keep.tolist()], n_days=N_DAYS)
    t2 = perf_counter()

    rng = np.random.default_rng(derive_seed(seed, f"{name}:outages"))
    relay_ids = list(world.topology.relay_ids)
    outages = []
    for relay_index, day, hours in spec.outages:
        start = 24.0 * day + float(rng.uniform(0.0, 12.0))
        outage = RelayOutage(relay_ids[relay_index], start, start + hours)
        world.add_outage(outage)
        outages.append(outage)

    digest = hashlib.sha256()
    digest.update(repr((spec, seconds, n_base, outages)).encode("utf-8"))
    digest.update(keep.tobytes())
    return ReplayInputs(
        spec=spec,
        world=world,
        trace=trace,
        policy_seed=derive_seed(seed, f"{name}:policy") % (2**31),
        outcome_seed=derive_seed(seed, f"{name}:outcomes") % (2**31),
        outages=outages,
        build_world_s=t1 - t0,
        generate_trace_s=t2 - t1,
        digest=digest.hexdigest(),
    )
