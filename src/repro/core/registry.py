"""Declarative policy registry: every selection strategy, one namespace.

Before this module, policy construction was scattered across ad-hoc
switches -- ``PolicySpec.build`` in :mod:`repro.simulation.parallel`,
``standard_policies`` in :mod:`repro.simulation.experiment`, the testbed's
hand-built :class:`~repro.core.policy.ViaConfig`, and each benchmark's own
factory calls.  Adding a selector meant touching all of them.

Now a selector is **one registration**::

    from repro.core.registry import register, schema_field

    @register(
        "ldns",
        description="Pick the relay closest to the caller's LDNS.",
        schema=(schema_field("radius_km", "float", 500.0),),
    )
    def _build_ldns(world, *, metric, seed, **overrides):
        return LdnsPolicy(metric=metric, seed=seed, **overrides)

Each :class:`PolicyEntry` carries the factory, a config schema (field
names, display types, defaults -- what ``repro policies`` prints and what
override validation is checked against), and capability flags:

* ``supports_batch`` -- serves the vectorised ``assign_many`` /
  ``observe_many`` hot path (see ``docs/performance.md``);
* ``supports_checkpoint`` -- round-trips learned state through
  ``state_dict`` / ``load_state_dict``;
* ``supports_multipath`` -- assigns :class:`~repro.core.multipath.PathSet`
  path pairs via ``assign_paths`` / ``observe_paths`` instead of single
  :class:`~repro.netmodel.options.RelayOption` choices.

``PolicySpec`` resolves through :data:`REGISTRY` instead of a hardcoded
switch, so ``run_grid``, ``standard_policies``, the testbed, and the
benchmarks all construct policies from this one source of truth; a policy
built by registry name is bit-identical to one built directly from its
factory.  Unknown names fail with a did-you-mean listing
(:class:`UnknownPolicyError`).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields as dataclass_fields
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.core.baselines import (
    DefaultPolicy,
    OraclePolicy,
    make_strawman_exploration,
    make_strawman_prediction,
    make_via,
    via_config,
)
from repro.core.caching import CachedAssignmentPolicy
from repro.core.hybrid import HybridReactivePolicy
from repro.core.multipath import MultipathBanditPolicy, RandomPathSetPolicy
from repro.core.policy import (
    SelectionPolicy,
    ViaConfig,
    ViaPolicy,
)
from repro.core.sharding import ShardedPolicy
from repro.core.tomography import InterRelayLookup
from repro.netmodel.metrics import PathMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.netmodel.world import World

__all__ = [
    "ConfigField",
    "PolicyEntry",
    "PolicyRegistry",
    "UnknownPolicyError",
    "REGISTRY",
    "register",
    "build_policy",
    "policy_names",
    "world_inter_relay",
    "schema_field",
    "viaconfig_schema",
]


def world_inter_relay(world: "World") -> InterRelayLookup:
    """The provider's knowledge of its own backbone (§4.4), from a world.

    The canonical inter-relay lookup every world-built policy closes over:
    the backbone segments' base performance, which the stable private-WAN
    regime keeps accurate.  ``repro.simulation.experiment``'s
    ``make_inter_relay_lookup`` delegates here so registry-built and
    directly-built policies share one definition.
    """

    def lookup(r1: int, r2: int) -> PathMetrics:
        return world.inter_segment(r1, r2).base

    return lookup


class UnknownPolicyError(ValueError):
    """An unregistered policy name, with a did-you-mean listing."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        suggestions = difflib.get_close_matches(name, known, n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(map(repr, suggestions))}?" if suggestions else ""
        super().__init__(
            f"unknown policy spec kind: {name!r}{hint} "
            f"(registered: {', '.join(known)})"
        )
        self.name = name
        self.suggestions = tuple(suggestions)


@dataclass(frozen=True, slots=True)
class ConfigField:
    """One schema entry: an override key with its display type and default."""

    name: str
    type: str
    default: Any


def schema_field(name: str, type_name: str, default: Any) -> ConfigField:
    """Convenience constructor for registration sites."""
    return ConfigField(name=name, type=type_name, default=default)


_VIA_DEFAULTS = ViaConfig()


def viaconfig_schema(
    *, exclude: tuple[str, ...] = ("metric", "seed")
) -> tuple[ConfigField, ...]:
    """The :class:`ViaConfig` knob surface as schema fields.

    Derived from the dataclass itself so the schema can never drift from
    the config; ``metric`` and ``seed`` are excluded by default because
    they are first-class arguments of :meth:`PolicyRegistry.build`, not
    overrides.
    """
    return tuple(
        ConfigField(f.name, str(f.type), getattr(_VIA_DEFAULTS, f.name))
        for f in dataclass_fields(ViaConfig)
        if f.name not in exclude
    )


@dataclass(frozen=True, slots=True)
class PolicyEntry:
    """One registered policy: factory + schema + capability flags.

    ``factory(world, *, metric, seed, **overrides)`` builds the live
    policy; ``world`` may be ``None`` for entries with
    ``needs_world=False``.  ``policy_class`` is the concrete class the
    factory produces (used by the registry-completeness lint and by
    harnesses like ``run_differential`` that construct the class directly
    from a config).
    """

    name: str
    description: str
    factory: Callable[..., SelectionPolicy]
    schema: tuple[ConfigField, ...] = ()
    supports_batch: bool = False
    supports_checkpoint: bool = False
    supports_multipath: bool = False
    needs_world: bool = False
    policy_class: type | None = None

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.schema)

    def validate_overrides(self, overrides: Mapping[str, Any]) -> None:
        """Reject override keys outside the schema, with a listing."""
        allowed = set(self.field_names())
        unknown = sorted(set(overrides) - allowed)
        if unknown:
            raise ValueError(
                f"unknown config override(s) for policy {self.name!r}: "
                f"{', '.join(map(repr, unknown))} "
                f"(valid: {', '.join(sorted(allowed)) or '<none>'})"
            )

    def build(
        self,
        world: "World | None" = None,
        *,
        metric: str = "rtt_ms",
        seed: int = 42,
        **overrides: Any,
    ) -> SelectionPolicy:
        """Construct the live policy, validating overrides first."""
        self.validate_overrides(overrides)
        if self.needs_world and world is None:
            raise ValueError(
                f"policy {self.name!r} needs a world to build against "
                "(it closes over ground truth or the backbone lookup)"
            )
        return self.factory(world, metric=metric, seed=seed, **overrides)


class PolicyRegistry:
    """Name → :class:`PolicyEntry` mapping with registration decorator."""

    def __init__(self) -> None:
        self._entries: dict[str, PolicyEntry] = {}

    def register(
        self,
        name: str,
        *,
        description: str,
        schema: tuple[ConfigField, ...] = (),
        supports_batch: bool = False,
        supports_checkpoint: bool = False,
        supports_multipath: bool = False,
        needs_world: bool = False,
        policy_class: type | None = None,
    ) -> Callable[[Callable[..., SelectionPolicy]], Callable[..., SelectionPolicy]]:
        """Decorator: register ``factory`` under ``name``.

        The factory keeps working as a plain function; the registry only
        records it.  Re-registering a name is an error -- entries are the
        single source of truth and silent replacement would hide it.
        """
        if not name:
            raise ValueError("policy name must be non-empty")

        def decorator(
            factory: Callable[..., SelectionPolicy],
        ) -> Callable[..., SelectionPolicy]:
            if name in self._entries:
                raise ValueError(f"policy {name!r} is already registered")
            self._entries[name] = PolicyEntry(
                name=name,
                description=description,
                factory=factory,
                schema=schema,
                supports_batch=supports_batch,
                supports_checkpoint=supports_checkpoint,
                supports_multipath=supports_multipath,
                needs_world=needs_world,
                policy_class=policy_class,
            )
            return factory

        return decorator

    def get(self, name: str) -> PolicyEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownPolicyError(name, self.names())
        return entry

    def names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def entries(self) -> tuple[PolicyEntry, ...]:
        return tuple(self._entries.values())

    def policy_classes(self) -> set[type]:
        """Every concrete class registered entries claim to produce."""
        return {e.policy_class for e in self._entries.values() if e.policy_class}

    def build(
        self,
        name: str,
        world: "World | None" = None,
        *,
        metric: str = "rtt_ms",
        seed: int = 42,
        **overrides: Any,
    ) -> SelectionPolicy:
        """Build policy ``name``; unknown names get a did-you-mean error."""
        return self.get(name).build(world, metric=metric, seed=seed, **overrides)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[PolicyEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide registry all built-in policies register against.
REGISTRY = PolicyRegistry()

#: Module-level aliases used by registration sites and call sites alike.
register = REGISTRY.register


def build_policy(
    name: str,
    world: "World | None" = None,
    *,
    metric: str = "rtt_ms",
    seed: int = 42,
    **overrides: Any,
) -> SelectionPolicy:
    """Build a registered policy by name (see :meth:`PolicyRegistry.build`)."""
    return REGISTRY.build(name, world, metric=metric, seed=seed, **overrides)


def policy_names() -> tuple[str, ...]:
    """All registered policy names, in registration order."""
    return REGISTRY.names()


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
#
# Factories take (world, *, metric, seed, **overrides) and forward to the
# same constructors the pre-registry switches called, with identical
# arguments -- the bit-identity contract `tests/test_registry.py` pins.


@register(
    "default",
    description="BGP default path; relays only when NAT blocks direct (§4.2 baseline).",
    schema=(schema_field("name", "str", "default"),),
    policy_class=DefaultPolicy,
)
def _build_default(world, *, metric: str, seed: int, **overrides):
    return DefaultPolicy(**overrides)


@register(
    "oracle",
    description="Foresight baseline: best true-mean option per (pair, day) (§3.2).",
    schema=(
        schema_field("budget", "float", 1.0),
        schema_field("name", "str | None", None),
    ),
    needs_world=True,
    policy_class=OraclePolicy,
)
def _build_oracle(world, *, metric: str, seed: int, **overrides):
    return OraclePolicy(world, metric, **overrides)


@register(
    "via",
    description="Full Algorithm 1: prediction-guided top-k + modified UCB1.",
    schema=viaconfig_schema(),
    supports_batch=True,
    supports_checkpoint=True,
    needs_world=True,
    policy_class=ViaPolicy,
)
def _build_via(world, *, metric: str, seed: int, **overrides):
    return make_via(
        metric, inter_relay=world_inter_relay(world), seed=seed, **overrides
    )


@register(
    "strawman-prediction",
    description="Strawman I (§4.2): pure prediction, argmin predicted mean.",
    schema=viaconfig_schema(),
    needs_world=True,
    policy_class=ViaPolicy,
)
def _build_strawman_prediction(world, *, metric: str, seed: int, **overrides):
    return make_strawman_prediction(
        metric, inter_relay=world_inter_relay(world), seed=seed, **overrides
    )


@register(
    "strawman-exploration",
    description="Strawman II (§4.2): ε-greedy over all options, no pruning.",
    schema=(schema_field("greedy_epsilon", "float", 0.1), *viaconfig_schema(
        exclude=("metric", "seed", "greedy_epsilon")
    )),
    policy_class=ViaPolicy,
)
def _build_strawman_exploration(world, *, metric: str, seed: int, **overrides):
    return make_strawman_exploration(metric, seed=seed, **overrides)


#: Knobs of :class:`HybridReactivePolicy` beyond the ViaConfig surface.
_HYBRID_FIELDS = (
    schema_field("probe_top_n", "int", 2),
    schema_field("probe_window_s", "float", 10.0),
    schema_field("min_duration_s", "float", 60.0),
)


@register(
    "hybrid-reactive",
    description="§7 hybrid: prediction-pruned in-call probing, keep the winner.",
    schema=(*_HYBRID_FIELDS, *viaconfig_schema()),
    supports_checkpoint=True,
    needs_world=True,
    policy_class=HybridReactivePolicy,
)
def _build_hybrid_reactive(world, *, metric: str, seed: int, **overrides):
    hybrid_keys = {f.name for f in _HYBRID_FIELDS}
    hybrid_kwargs = {k: v for k, v in overrides.items() if k in hybrid_keys}
    config_overrides = {k: v for k, v in overrides.items() if k not in hybrid_keys}
    return HybridReactivePolicy(
        via_config(metric, seed=seed, **config_overrides),
        inter_relay=world_inter_relay(world),
        **hybrid_kwargs,
    )


#: Knobs of :class:`CachedAssignmentPolicy` beyond the wrapped ViaConfig.
_CACHE_FIELDS = (
    schema_field("ttl_hours", "float", 1.0),
    schema_field("max_entries", "int | None", None),
)


@register(
    "cached-via",
    description="VIA behind a per-pair client decision cache (§3.1 scalability).",
    schema=(*_CACHE_FIELDS, *viaconfig_schema()),
    needs_world=True,
    policy_class=CachedAssignmentPolicy,
)
def _build_cached_via(world, *, metric: str, seed: int, **overrides):
    cache_keys = {f.name for f in _CACHE_FIELDS}
    cache_kwargs = {k: v for k, v in overrides.items() if k in cache_keys}
    config_overrides = {k: v for k, v in overrides.items() if k not in cache_keys}
    granularity = config_overrides.get("granularity", "as")
    inner = make_via(
        metric, inter_relay=world_inter_relay(world), seed=seed, **config_overrides
    )
    return CachedAssignmentPolicy(inner, granularity=granularity, **cache_kwargs)


#: Knobs of :class:`ShardedPolicy` beyond the per-shard ViaConfig.
_SHARD_FIELDS = (
    schema_field("n_shards", "int", 4),
    schema_field("placement", "str", "hash"),
    schema_field("d_choices", "int", 2),
)


@register(
    "sharded-via",
    description="K-way partitioned control plane of independent VIA shards (§7).",
    schema=(*_SHARD_FIELDS, *viaconfig_schema()),
    supports_batch=True,
    supports_checkpoint=True,
    needs_world=True,
    policy_class=ShardedPolicy,
)
def _build_sharded_via(world, *, metric: str, seed: int, **overrides):
    shard_keys = {f.name for f in _SHARD_FIELDS}
    shard_kwargs = {k: v for k, v in overrides.items() if k in shard_keys}
    config_overrides = {k: v for k, v in overrides.items() if k not in shard_keys}
    n_shards = shard_kwargs.pop("n_shards", 4)
    granularity = config_overrides.get("granularity", "as")
    inter_relay = world_inter_relay(world)

    def shard_factory(i: int) -> ViaPolicy:
        # Per-shard seeds decorrelate exploration, matching the convention
        # of benchmarks/bench_ext_sharded_controller.py.
        return make_via(
            metric, inter_relay=inter_relay, seed=seed + i, **config_overrides
        )

    return ShardedPolicy(
        shard_factory, n_shards, granularity=granularity, **shard_kwargs
    )


@register(
    "multipath-ucb",
    description="Bandit over path pairs: duplicate/split a call across two paths.",
    schema=(
        schema_field("mode", "str", "duplicate"),
        schema_field("split_weight", "float", 0.5),
        schema_field("max_singles", "int", 4),
        schema_field("max_pairs", "int", 10),
        schema_field("epsilon", "float", 0.05),
        schema_field("exploration_coef", "float", 0.1),
        schema_field("granularity", "str", "as"),
        schema_field("name", "str | None", None),
    ),
    supports_checkpoint=True,
    supports_multipath=True,
    policy_class=MultipathBanditPolicy,
)
def _build_multipath_ucb(world, *, metric: str, seed: int, **overrides):
    return MultipathBanditPolicy(metric, seed=seed, **overrides)


@register(
    "multipath-random",
    description="Uniform-random path pairs: the multipath exploration floor.",
    schema=(
        schema_field("mode", "str", "duplicate"),
        schema_field("split_weight", "float", 0.5),
        schema_field("max_singles", "int", 4),
        schema_field("name", "str | None", None),
    ),
    supports_multipath=True,
    policy_class=RandomPathSetPolicy,
)
def _build_multipath_random(world, *, metric: str, seed: int, **overrides):
    return RandomPathSetPolicy(seed=seed, **overrides)
