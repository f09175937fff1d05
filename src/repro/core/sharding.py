"""Sharded (partitioned) controller: the §7 scalability question, measured.

The paper's discussion asks whether one logical controller can handle a
large service and points at partitioning (and C3-style split control) as
the likely answer.  Partitioning is not free, though: a shard only sees
the measurements of *its* pairs, so cross-pair learning -- tomography
above all -- loses coverage.

:class:`ShardedPolicy` models a K-way partitioned control plane: each
shard is an independent policy (e.g. a full
:class:`~repro.core.policy.ViaPolicy`), and calls are routed to shards by
a stable hash of their canonical pair key.  Comparing K = 1 against
larger K quantifies what partitioning costs in selection quality
(`benchmarks/bench_ext_sharded_controller.py`).

Two placement modes are supported (the "Balanced routing of random
calls" experiment):

* ``placement="hash"`` -- static consistent hashing via
  :func:`stable_shard_of`; stateless, so any process that knows
  ``n_shards`` routes identically (this is what the multi-process ring
  in :mod:`repro.deployment.ring` uses).
* ``placement="power_of_d"`` -- power-of-d-choices: the first time a
  pair is seen, ``d`` candidate shards are derived from its key and the
  least-loaded one wins; the choice is sticky so a pair's history never
  fragments.  Better balanced under skew, but stateful -- the placement
  table is part of :meth:`ShardedPolicy.state_dict`.

The class is a first-class policy: it checkpoints
(``state_dict``/``load_state_dict``), serves the vectorised batch hot
path (``assign_many``/``observe_many`` with group-by-shard dispatch,
bit-identical to the scalar loop), and participates in periodic refresh
(``refresh``/``n_refreshes``) and outage routing (``set_down_relays``)
like any single :class:`~repro.core.policy.ViaPolicy`.
"""

from __future__ import annotations

import hashlib
import logging
import math
from typing import Callable, Hashable, Sequence

from repro.core.history import _decode_key, _encode_key
from repro.core.keys import PairKeyer
from repro.core.policy import SelectionPolicy
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import RelayOption
from repro.telephony.call import Call

__all__ = [
    "ShardedPolicy",
    "stable_shard_of",
    "shard_candidates",
    "SHARDED_STATE_FORMAT",
    "PLACEMENT_MODES",
]

logger = logging.getLogger(__name__)

SHARDED_STATE_FORMAT = "via-sharded-policy-v1"

#: Supported shard-placement strategies.
PLACEMENT_MODES = ("hash", "power_of_d")


def stable_shard_of(pair_key: Hashable, n_shards: int) -> int:
    """Deterministic, platform-independent shard assignment.

    Uses blake2 over the repr of the canonical pair key so the mapping is
    stable across processes and Python hash randomisation.  Ring
    membership depends on this exact digest (see the golden-vector pins
    in ``tests/test_sharding.py``) -- changing it strands every stored
    pair on the wrong shard.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1: {n_shards}")
    digest = hashlib.blake2s(repr(pair_key).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big") % n_shards


def shard_candidates(pair_key: Hashable, n_shards: int, d: int) -> list[int]:
    """The ``d`` candidate shards a pair may be placed on (power-of-d).

    Candidate ``j`` is the stable hash of ``(j, pair_key)``, so the
    candidate set is deterministic across processes.  Duplicates are
    dropped (a pair whose candidates collide simply has fewer choices).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1: {d}")
    seen: list[int] = []
    for j in range(d):
        shard = stable_shard_of((j, pair_key), n_shards)
        if shard not in seen:
            seen.append(shard)
    return seen


class ShardedPolicy:
    """A K-way partitioned control plane over independent shard policies.

    ``shard_factory(i)`` builds shard ``i``'s policy; shards never share
    state (that is the point).  Pair keys are computed at ``granularity``
    so both directions of a pair land on the same shard.
    """

    def __init__(
        self,
        shard_factory: Callable[[int], SelectionPolicy],
        n_shards: int,
        *,
        granularity: str = "as",
        name: str | None = None,
        placement: str = "hash",
        d_choices: int = 2,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        if placement not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown placement {placement!r}; expected one of {PLACEMENT_MODES}"
            )
        if d_choices < 1:
            raise ValueError(f"d_choices must be >= 1: {d_choices}")
        self.shards: list[SelectionPolicy] = [shard_factory(i) for i in range(n_shards)]
        self.n_shards = n_shards
        self._keyer = PairKeyer(granularity)  # type: ignore[arg-type]
        self.granularity = self._keyer.granularity
        self.name = name or f"sharded[{n_shards}x{self.shards[0].name}]"
        self.shard_calls: list[int] = [0] * n_shards
        self.placement = placement
        self.d_choices = d_choices
        # Sticky power-of-d placements: pair_key -> shard index.  Unused
        # (and empty) under static hashing.
        self._placement: dict[Hashable, int] = {}
        self._warned_scalar_fallback = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, call: Call) -> int:
        """The shard that owns ``call``'s pair (placing it if new)."""
        pair_key = self._keyer.view(call).pair_key
        if self.placement == "hash":
            return stable_shard_of(pair_key, self.n_shards)
        shard = self._placement.get(pair_key)
        if shard is None:
            candidates = shard_candidates(pair_key, self.n_shards, self.d_choices)
            # min() is stable: ties go to the earliest candidate, which is
            # deterministic because the candidate order is.
            shard = min(candidates, key=lambda s: self.shard_calls[s])
            self._placement[pair_key] = shard
        return shard

    # ------------------------------------------------------------------
    # The scalar policy interface
    # ------------------------------------------------------------------

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        shard = self._route(call)
        self.shard_calls[shard] += 1
        return self.shards[shard].assign(call, options)

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        self.shards[self._route(call)].observe(call, option, metrics)

    # ------------------------------------------------------------------
    # Batch hot path: group-by-shard dispatch
    # ------------------------------------------------------------------

    def _group_for_assign(self, calls: Sequence[Call]) -> dict[int, list[int]]:
        """Route every call in arrival order, mutating load counters.

        Routing first -- in the original call order -- keeps power-of-d
        placement decisions bit-identical to the scalar loop, which
        interleaves placement and load accounting per call.
        """
        groups: dict[int, list[int]] = {}
        for i, call in enumerate(calls):
            shard = self._route(call)
            self.shard_calls[shard] += 1
            groups.setdefault(shard, []).append(i)
        return groups

    def _warn_scalar_fallback_once(self, shard_policy: SelectionPolicy) -> None:
        if not self._warned_scalar_fallback:
            self._warned_scalar_fallback = True
            logger.info(
                "sharded policy %s: shard policy %s has no assign_many/"
                "observe_many; batches are served by the scalar loop",
                self.name,
                getattr(shard_policy, "name", type(shard_policy).__name__),
            )

    def assign_many(
        self,
        calls: Sequence[Call],
        options_per_call: Sequence[list[RelayOption]],
    ) -> list[RelayOption]:
        """Batch assignment, bit-identical to the scalar ``assign`` loop.

        Calls are grouped by owning shard (routing in arrival order, so
        power-of-d placements match the scalar loop exactly), each group
        is served by the shard's own ``assign_many`` when it has one, and
        the choices are scattered back into call order.
        """
        if len(calls) != len(options_per_call):
            raise ValueError(
                f"calls and options_per_call length mismatch: "
                f"{len(calls)} != {len(options_per_call)}"
            )
        groups = self._group_for_assign(calls)
        choices: list[RelayOption | None] = [None] * len(calls)
        for shard, rows in groups.items():
            policy = self.shards[shard]
            batch_assign = getattr(policy, "assign_many", None)
            if batch_assign is not None:
                picked = batch_assign(
                    [calls[i] for i in rows], [options_per_call[i] for i in rows]
                )
                for i, choice in zip(rows, picked):
                    choices[i] = choice
            else:
                self._warn_scalar_fallback_once(policy)
                for i in rows:
                    choices[i] = policy.assign(calls[i], options_per_call[i])
        return choices  # type: ignore[return-value]

    def observe_many(
        self,
        calls: Sequence[Call],
        options: Sequence[RelayOption],
        metrics_list: Sequence[PathMetrics],
    ) -> None:
        """Batch observation with the same group-by-shard dispatch."""
        if not (len(calls) == len(options) == len(metrics_list)):
            raise ValueError(
                f"calls/options/metrics length mismatch: "
                f"{len(calls)}/{len(options)}/{len(metrics_list)}"
            )
        groups: dict[int, list[int]] = {}
        for i, call in enumerate(calls):
            groups.setdefault(self._route(call), []).append(i)
        for shard, rows in groups.items():
            policy = self.shards[shard]
            batch_observe = getattr(policy, "observe_many", None)
            if batch_observe is not None:
                batch_observe(
                    [calls[i] for i in rows],
                    [options[i] for i in rows],
                    [metrics_list[i] for i in rows],
                )
            else:
                self._warn_scalar_fallback_once(policy)
                for i in rows:
                    policy.observe(calls[i], options[i], metrics_list[i])

    # ------------------------------------------------------------------
    # Periodic refresh and outage routing (controller-loop interface)
    # ------------------------------------------------------------------

    def refresh(self, t_hours: float) -> int:
        """Roll every shard's window over to the period covering ``t_hours``.

        Returns the number of shards that actually refreshed (0 when all
        were already in the right period).  Shards without a ``refresh``
        method are skipped.
        """
        refreshed = 0
        for policy in self.shards:
            roll = getattr(policy, "refresh", None)
            if roll is not None and roll(t_hours):
                refreshed += 1
        return refreshed

    @property
    def n_refreshes(self) -> int:
        """Total refreshes across the fleet (sums the per-shard counters)."""
        return sum(getattr(policy, "n_refreshes", 0) for policy in self.shards)

    def set_down_relays(self, relay_ids) -> None:
        """Fan the down-relay set out to every shard that honours it."""
        for policy in self.shards:
            setter = getattr(policy, "set_down_relays", None)
            if setter is not None:
                setter(relay_ids)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Versioned fleet checkpoint: one entry per shard, keyed by index.

        The wrapper's own routing state (placement mode, sticky
        power-of-d placements, load counters) rides along so a restored
        fleet routes -- and therefore learns -- identically.
        """
        return {
            "format": SHARDED_STATE_FORMAT,
            "n_shards": self.n_shards,
            "granularity": self.granularity,
            "placement": self.placement,
            "d_choices": self.d_choices,
            "shard_calls": list(self.shard_calls),
            "placements": [
                [[_encode_key(side_a), _encode_key(side_b)], shard]
                for (side_a, side_b), shard in self._placement.items()
            ],
            "shards": {str(i): policy.state_dict() for i, policy in enumerate(self.shards)},
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` checkpoint, validating topology.

        A checkpoint taken at a different ``n_shards`` or ``granularity``
        is rejected: the pair→shard mapping would silently change and
        every shard would be fed the wrong pairs.
        """
        fmt = payload.get("format")
        if fmt != SHARDED_STATE_FORMAT:
            raise ValueError(
                f"unrecognised sharded-policy state format: {fmt!r} "
                f"(expected {SHARDED_STATE_FORMAT!r})"
            )
        saved_shards = payload.get("n_shards")
        if saved_shards != self.n_shards:
            raise ValueError(
                f"checkpoint has n_shards={saved_shards!r}, this policy has "
                f"{self.n_shards}; refusing to remap pairs across a different ring"
            )
        saved_gran = payload.get("granularity")
        if saved_gran != self.granularity:
            raise ValueError(
                f"checkpoint granularity {saved_gran!r} != configured "
                f"{self.granularity!r}; pair keys would not match"
            )
        saved_placement = payload.get("placement", "hash")
        if saved_placement != self.placement:
            raise ValueError(
                f"checkpoint placement {saved_placement!r} != configured "
                f"{self.placement!r}"
            )
        states = payload.get("shards")
        if not isinstance(states, dict):
            raise ValueError("sharded-policy checkpoint missing 'shards' dict")
        missing = [str(i) for i in range(self.n_shards) if str(i) not in states]
        if missing:
            raise ValueError(f"sharded-policy checkpoint missing shard entries: {missing}")
        for i, policy in enumerate(self.shards):
            loader = getattr(policy, "load_state_dict", None)
            if loader is None:
                raise ValueError(
                    f"shard {i} policy {getattr(policy, 'name', policy)!r} "
                    "cannot load_state_dict"
                )
            loader(states[str(i)])
        saved_calls = payload.get("shard_calls", [0] * self.n_shards)
        if len(saved_calls) != self.n_shards:
            raise ValueError(
                f"shard_calls length {len(saved_calls)} != n_shards {self.n_shards}"
            )
        self.shard_calls = [int(c) for c in saved_calls]
        self._placement = {
            (_decode_key(sides[0]), _decode_key(sides[1])): int(shard)
            for sides, shard in payload.get("placements", [])
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def load_imbalance(self) -> float:
        """max/mean shard load -- 1.0 is perfectly balanced.

        An all-idle fleet has no defined balance; it returns
        ``float("nan")`` so dashboards cannot mistake "no traffic" for
        "perfectly balanced" (check with ``math.isnan``).
        """
        total = sum(self.shard_calls)
        if total == 0:
            return math.nan
        mean = total / self.n_shards
        return max(self.shard_calls) / mean
