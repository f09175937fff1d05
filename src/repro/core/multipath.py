"""Multipath relaying: split or duplicate a call across two relay paths.

Via (the source paper) commits each call to a single best path.  The
online-learning multipath telephony literature (see ``PAPERS.md``) shows
that under volatile loss -- exactly the outage-heavy regimes our fault
plans make reproducible -- sending a call over *two* overlay paths at once
can beat any single-path selector: a duplicated stream survives one path
dying mid-call, and a split stream degrades gracefully instead of
blackholing.

Three pieces:

* :class:`PathSet` -- the multipath assignment: an ordered pair of
  distinct :class:`~repro.netmodel.options.RelayOption` paths plus the
  redundancy mode (``duplicate``: full copy on both; ``split``: FEC-style
  weighted stream division with ``split_weight`` of the stream on the
  primary).
* The combined-quality reward model -- :func:`combine_duplicate` /
  :func:`combine_split` / :func:`combined_metrics` fold the two paths'
  realised :class:`~repro.netmodel.metrics.PathMetrics` into the quality
  the receiver experiences; costs then come from the existing
  :class:`~repro.core.costs.MetricCost` / :class:`~repro.core.costs.MosCost`
  models unchanged.
* :class:`MultipathBanditPolicy` -- a bandit over a capped path-*pair*
  arm-space, reusing :class:`~repro.core.bandit.UCB1Explorer` (arms are
  hashable keys; a :class:`PathSet` is as good an arm as a single option)
  in ``classic`` range-normalisation mode, since no per-pair predictions
  exist over combined paths.

Replay integration: the engine detects ``assign_paths`` /
``observe_paths`` and scores both paths per call with per-path outage
semantics (:mod:`repro.simulation.replay`), so ``run_grid`` compares
bandit-over-paths against Via's single-path top-k end to end
(``benchmarks/bench_ext_multipath.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Protocol

import numpy as np

from repro.core.bandit import UCB1Explorer
from repro.core.costs import CostModel, make_cost_model
from repro.core.history import CheckpointCodec
from repro.core.keys import PairKeyer, PairView
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import RelayOption
from repro.telephony.call import Call

__all__ = [
    "PATHSET_MODES",
    "PathSet",
    "MultipathPolicy",
    "combine_duplicate",
    "combine_split",
    "combined_metrics",
    "MultipathBanditPolicy",
    "RandomPathSetPolicy",
    "MULTIPATH_STATE_FORMAT",
]

#: Supported redundancy modes.
PATHSET_MODES: tuple[str, ...] = ("duplicate", "split")

MULTIPATH_STATE_FORMAT = "via-multipath-policy-v1"


@dataclass(frozen=True, slots=True)
class PathSet:
    """Two concurrent relay paths for one call.

    ``duplicate`` sends a full copy of the stream down both paths (the
    receiver plays whichever copy of each packet arrives first).
    ``split`` divides the stream: a ``split_weight`` fraction rides the
    primary, the rest the secondary -- FEC-style redundancy weight, where
    losing one path costs only that path's share of packets.
    """

    primary: RelayOption
    secondary: RelayOption
    mode: str = "duplicate"
    split_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.primary == self.secondary:
            raise ValueError("a PathSet needs two distinct paths")
        if self.mode not in PATHSET_MODES:
            raise ValueError(
                f"unknown PathSet mode {self.mode!r}; expected one of {PATHSET_MODES}"
            )
        if not 0.0 < self.split_weight < 1.0:
            raise ValueError(
                f"split_weight must be in (0, 1): {self.split_weight}"
            )

    @property
    def options(self) -> tuple[RelayOption, RelayOption]:
        return (self.primary, self.secondary)

    def relay_ids(self) -> tuple[int, ...]:
        """Distinct relay ids across both paths, first-seen order."""
        seen: list[int] = []
        for option in self.options:
            for rid in option.relay_ids():
                if rid not in seen:
                    seen.append(rid)
        return tuple(seen)

    def reversed(self) -> "PathSet":
        """The same path set seen from the callee's side."""
        return PathSet(
            primary=self.primary.reversed(),
            secondary=self.secondary.reversed(),
            mode=self.mode,
            split_weight=self.split_weight,
        )

    def __str__(self) -> str:
        if self.mode == "split":
            return f"split[{self.split_weight:g}]({self.primary} | {self.secondary})"
        return f"dup({self.primary} | {self.secondary})"


class MultipathPolicy(Protocol):
    """What the replay engine needs from a multipath strategy."""

    name: str

    def assign_paths(self, call: Call, options: list[RelayOption]) -> PathSet:
        """Pick a two-path assignment for ``call`` among ``options``."""
        ...

    def observe_paths(
        self,
        call: Call,
        path_set: PathSet,
        primary_metrics: PathMetrics,
        secondary_metrics: PathMetrics,
        combined: PathMetrics,
    ) -> None:
        """Learn from the realised per-path and combined performance."""
        ...


# ----------------------------------------------------------------------
# The combined-quality reward model
# ----------------------------------------------------------------------


def combine_duplicate(
    primary: PathMetrics, secondary: PathMetrics
) -> PathMetrics:
    """Receiver-experienced quality of a fully duplicated stream.

    Each packet is delivered by whichever copy arrives, so latency and
    jitter follow the faster path (elementwise best-of) and a packet is
    lost only when *both* copies are lost (loss product, assuming
    independent path loss).  Every combined metric is therefore bounded
    above by the best constituent path's -- duplication can only help,
    at 2x the bandwidth.
    """
    return PathMetrics(
        rtt_ms=min(primary.rtt_ms, secondary.rtt_ms),
        loss_rate=primary.loss_rate * secondary.loss_rate,
        jitter_ms=min(primary.jitter_ms, secondary.jitter_ms),
    )


def combine_split(
    primary: PathMetrics, secondary: PathMetrics, weight: float
) -> PathMetrics:
    """Receiver-experienced quality of a ``weight``-split stream.

    The stream divides: a ``weight`` fraction of packets ride the primary
    and see its metrics, the rest the secondary's -- so every combined
    metric is the packet-weighted blend, bounded by the best and worst
    constituent path.  One path dying costs its share of the stream
    (loss >= its weight) instead of the whole call.
    """
    if not 0.0 < weight < 1.0:
        raise ValueError(f"weight must be in (0, 1): {weight}")
    w = weight
    return PathMetrics(
        rtt_ms=w * primary.rtt_ms + (1.0 - w) * secondary.rtt_ms,
        loss_rate=w * primary.loss_rate + (1.0 - w) * secondary.loss_rate,
        jitter_ms=w * primary.jitter_ms + (1.0 - w) * secondary.jitter_ms,
    )


def combined_metrics(
    path_set: PathSet, primary: PathMetrics, secondary: PathMetrics
) -> PathMetrics:
    """The reward-model entry point: combine per ``path_set.mode``."""
    if path_set.mode == "duplicate":
        return combine_duplicate(primary, secondary)
    return combine_split(primary, secondary, path_set.split_weight)


def _candidate_singles(
    norm_options: list[RelayOption], max_singles: int
) -> list[RelayOption]:
    """The capped per-pair single-path candidate set, order-preserving.

    ``options_for_pair`` returns direct first, then bounces, then
    transits; taking a prefix keeps the cheapest/likeliest paths in the
    arm space while capping the pair combinatorics.
    """
    seen: list[RelayOption] = []
    for option in norm_options:
        if option not in seen:
            seen.append(option)
        if len(seen) >= max_singles:
            break
    return seen


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------


class MultipathBanditPolicy:
    """Bandit over path pairs: learn which two-path combination wins.

    Per (pair, direct-blocked) state, the arm space is every unordered
    pair of the first ``max_singles`` candidate options, capped at
    ``max_pairs`` arms, each arm a :class:`PathSet` in the configured
    redundancy mode.  Selection is :class:`~repro.core.bandit.UCB1Explorer`
    in ``classic`` range-normalisation mode over the *combined* cost of
    the realised call (no predictions exist for combined paths), with an
    ε fraction of calls exploring uniformly -- the general-exploration
    hedge against non-stationary path quality.

    The policy participates in outage routing (``set_down_relays``
    repicks around arms riding a down relay) and checkpoints its learned
    pair-bandit state (``state_dict`` / ``load_state_dict``).
    """

    def __init__(
        self,
        metric: str = "rtt_ms",
        *,
        mode: str = "duplicate",
        split_weight: float = 0.5,
        max_singles: int = 4,
        max_pairs: int = 10,
        epsilon: float = 0.05,
        exploration_coef: float = 0.1,
        granularity: str = "as",
        seed: int = 42,
        name: str | None = None,
    ) -> None:
        if mode not in PATHSET_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {PATHSET_MODES}"
            )
        if max_singles < 2:
            raise ValueError(f"max_singles must be >= 2: {max_singles}")
        if max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1: {max_pairs}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1]: {epsilon}")
        if not 0.0 <= exploration_coef < math.inf:
            raise ValueError(f"exploration_coef must be finite and >= 0: {exploration_coef!r}")
        self.metric = metric
        self.mode = mode
        self.split_weight = split_weight
        self.max_singles = max_singles
        self.max_pairs = max_pairs
        self.epsilon = epsilon
        self.exploration_coef = exploration_coef
        self.name = name or f"multipath-ucb[{metric},{mode}]"
        self._cost: CostModel = make_cost_model(metric)
        self._keyer = PairKeyer(granularity)  # type: ignore[arg-type]
        self._rng = np.random.default_rng(seed)
        self._bandits: dict[Hashable, UCB1Explorer] = {}
        self._down_relays: frozenset[int] = frozenset()
        self.n_epsilon_explorations = 0
        self.n_outage_repicks = 0

    # -- the multipath policy interface --------------------------------

    def assign_paths(self, call: Call, options: list[RelayOption]) -> PathSet:
        view = self._keyer.view(call)
        norm_options = [view.normalize(o) for o in options]
        bandit = self._bandit_for(view, call.direct_blocked, norm_options)
        arms = bandit.arms
        if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            self.n_epsilon_explorations += 1
            choice = arms[int(self._rng.integers(len(arms)))]
        else:
            choice = bandit.choose()
        choice = self._avoid_down(arms, choice)
        return self._denormalize(view, choice)

    def observe_paths(
        self,
        call: Call,
        path_set: PathSet,
        primary_metrics: PathMetrics,
        secondary_metrics: PathMetrics,
        combined: PathMetrics,
    ) -> None:
        view = self._keyer.view(call)
        norm = self._normalize(view, path_set)
        bandit = self._bandits.get((view.pair_key, call.direct_blocked))
        if bandit is not None and bandit.has_arm(norm):
            bandit.update(norm, self._cost.call_cost(combined))

    # -- outage routing -------------------------------------------------

    @property
    def down_relays(self) -> frozenset[int]:
        return self._down_relays

    def set_down_relays(self, relay_ids) -> None:
        """Replace the set of relays assign_paths must route around."""
        self._down_relays = frozenset(int(r) for r in relay_ids)

    def _arm_down(self, arm: PathSet) -> bool:
        return any(rid in self._down_relays for rid in arm.relay_ids())

    def _avoid_down(self, arms: list[PathSet], choice: PathSet) -> PathSet:
        """Repick the first fully-live arm when the choice rides a down relay.

        If every arm touches a down relay the original choice stands: the
        realised (partially blackholed) combined cost teaches the bandit
        the same lesson, and duplication still saves the call when only
        one of its paths is down.
        """
        if not self._down_relays or not self._arm_down(choice):
            return choice
        self.n_outage_repicks += 1
        for candidate in arms:
            if candidate != choice and not self._arm_down(candidate):
                return candidate
        return choice

    # -- internals ------------------------------------------------------

    def _bandit_for(
        self,
        view: PairView,
        direct_blocked: bool,
        norm_options: list[RelayOption],
    ) -> UCB1Explorer:
        key = (view.pair_key, direct_blocked)
        bandit = self._bandits.get(key)
        if bandit is None:
            arms = self._arm_space(norm_options)
            bandit = UCB1Explorer(
                arms,  # type: ignore[arg-type] -- arms are hashable keys
                normalizer=1.0,
                exploration_coef=self.exploration_coef,
                mode="classic",
            )
            self._bandits[key] = bandit
        return bandit

    def _arm_space(self, norm_options: list[RelayOption]) -> list[PathSet]:
        singles = _candidate_singles(norm_options, self.max_singles)
        if len(singles) < 2:
            raise ValueError(
                f"{self.name}: multipath needs >= 2 distinct options, "
                f"got {len(singles)}"
            )
        arms = [
            PathSet(a, b, mode=self.mode, split_weight=self.split_weight)
            for a, b in combinations(singles, 2)
        ]
        return arms[: self.max_pairs]

    @staticmethod
    def _normalize(view: PairView, path_set: PathSet) -> PathSet:
        return path_set.reversed() if view.flipped else path_set

    @staticmethod
    def _denormalize(view: PairView, path_set: PathSet) -> PathSet:
        return path_set.reversed() if view.flipped else path_set

    # -- checkpointing --------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-compatible checkpoint of the learned pair-bandit state.

        Options and pair keys are shared leaves
        (:class:`~repro.core.history.CheckpointCodec`): the tree is read-only.
        """
        codec = CheckpointCodec()
        states = []
        for (pair_key, direct_blocked), bandit in self._bandits.items():
            per_arm = bandit.export_state()
            states.append(
                {
                    "pair": codec.encode_pair(pair_key),
                    "direct_blocked": bool(direct_blocked),
                    "arms": [self._pathset_to_dict(a, codec) for a in bandit.arms],
                    "counts": [per_arm[a][0] for a in bandit.arms],
                    "cost_sums": [per_arm[a][1] for a in bandit.arms],
                    "max_seen_cost": bandit.max_seen_cost,
                }
            )
        return {
            "format": MULTIPATH_STATE_FORMAT,
            "metric": self.metric,
            "mode": self.mode,
            "rng": self._rng.bit_generator.state,
            "n_epsilon_explorations": self.n_epsilon_explorations,
            "pair_states": states,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a checkpoint produced by :meth:`state_dict`."""
        from repro.core.history import _decode_key

        if payload.get("format") != MULTIPATH_STATE_FORMAT:
            raise ValueError(
                f"unrecognised checkpoint format: {payload.get('format')!r}"
            )
        if payload.get("metric") != self.metric:
            raise ValueError(
                f"checkpoint optimises {payload.get('metric')!r}, "
                f"policy optimises {self.metric!r}"
            )
        rng_state = payload.get("rng")
        if rng_state is not None:
            self._rng.bit_generator.state = rng_state
        self.n_epsilon_explorations = int(
            payload.get("n_epsilon_explorations", 0)
        )
        self._bandits = {}
        codec = CheckpointCodec()
        for entry in payload.get("pair_states", ()):
            pair_key = (
                _decode_key(entry["pair"][0]),
                _decode_key(entry["pair"][1]),
            )
            arms = [self._pathset_from_dict(a, codec) for a in entry["arms"]]
            bandit = UCB1Explorer(
                arms,  # type: ignore[arg-type]
                normalizer=1.0,
                exploration_coef=self.exploration_coef,
                mode="classic",
            )
            bandit.restore_state(
                {
                    arm: (int(count), float(cost_sum))
                    for arm, count, cost_sum in zip(
                        arms, entry["counts"], entry["cost_sums"]
                    )
                },
                max_seen_cost=float(entry.get("max_seen_cost", 0.0)),
            )
            self._bandits[(pair_key, bool(entry["direct_blocked"]))] = bandit

    @staticmethod
    def _pathset_to_dict(path_set: PathSet, codec: CheckpointCodec) -> dict:
        return {
            "primary": codec.encode_option(path_set.primary),
            "secondary": codec.encode_option(path_set.secondary),
            "mode": path_set.mode,
            "split_weight": path_set.split_weight,
        }

    @staticmethod
    def _pathset_from_dict(data: dict, codec: CheckpointCodec) -> PathSet:
        return PathSet(
            primary=codec.decode_option(data["primary"]),
            secondary=codec.decode_option(data["secondary"]),
            mode=data["mode"],
            split_weight=float(data["split_weight"]),
        )


class RandomPathSetPolicy:
    """Uniform-random path pairs over the same capped candidate space.

    The exploration floor every learning multipath policy must beat; it
    samples from the identical ``max_singles``-capped arm space as
    :class:`MultipathBanditPolicy` so the comparison isolates *learning*
    rather than candidate-set differences.
    """

    def __init__(
        self,
        *,
        mode: str = "duplicate",
        split_weight: float = 0.5,
        max_singles: int = 4,
        seed: int = 42,
        name: str | None = None,
    ) -> None:
        if mode not in PATHSET_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {PATHSET_MODES}"
            )
        if max_singles < 2:
            raise ValueError(f"max_singles must be >= 2: {max_singles}")
        self.mode = mode
        self.split_weight = split_weight
        self.max_singles = max_singles
        self.name = name or f"multipath-random[{mode}]"
        self._rng = np.random.default_rng(seed)

    def assign_paths(self, call: Call, options: list[RelayOption]) -> PathSet:
        singles = _candidate_singles(options, self.max_singles)
        if len(singles) < 2:
            raise ValueError(
                f"{self.name}: multipath needs >= 2 distinct options, "
                f"got {len(singles)}"
            )
        i, j = self._rng.choice(len(singles), size=2, replace=False)
        return PathSet(
            singles[int(i)],
            singles[int(j)],
            mode=self.mode,
            split_weight=self.split_weight,
        )

    def observe_paths(
        self,
        call: Call,
        path_set: PathSet,
        primary_metrics: PathMetrics,
        secondary_metrics: PathMetrics,
        combined: PathMetrics,
    ) -> None:
        return None
