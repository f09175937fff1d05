"""The policy registry: one namespace for every selection strategy.

Pins the registry's contracts:

* every registered entry builds by name, on a world, as its declared
  ``policy_class``;
* ``PolicySpec`` resolution through the registry is **bit-identical** to
  direct factory construction (same replay outcomes, draw for draw);
* unknown names fail with a did-you-mean listing; unknown config
  overrides fail with the valid-field listing;
* the ``repro policies`` CLI lists and details entries (exit-code
  tested like ``repro store``).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.baselines import (
    DefaultPolicy,
    OraclePolicy,
    make_strawman_exploration,
    make_strawman_prediction,
    make_via,
)
from repro.core.caching import CachedAssignmentPolicy
from repro.core.multipath import MultipathBanditPolicy
from repro.core.policy import ViaPolicy
from repro.core.registry import (
    REGISTRY,
    UnknownPolicyError,
    build_policy,
    policy_names,
    world_inter_relay,
)
from repro.core.sharding import ShardedPolicy
from repro.simulation import PolicySpec, standard_policies
from repro.simulation.replay import replay
from repro.workload import WorkloadConfig, generate_trace


def _outcome_key(result):
    return [(o.option, o.metrics, o.rating) for o in result.outcomes]


class TestRegistryBasics:
    def test_all_names_build(self, small_world):
        for name in policy_names():
            policy = build_policy(name, small_world)
            assert policy.name, name
            entry = REGISTRY.get(name)
            if entry.policy_class is not None:
                assert isinstance(policy, entry.policy_class)

    def test_expected_entries_present(self):
        names = set(policy_names())
        assert {
            "default", "oracle", "via", "strawman-prediction",
            "strawman-exploration", "hybrid-reactive", "cached-via",
            "sharded-via", "multipath-ucb", "multipath-random",
        } <= names

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            build_policy("cached-vai")
        assert "did you mean" in str(excinfo.value)
        assert "cached-via" in excinfo.value.suggestions
        # Back-compat: callers that caught ValueError keep working.
        assert isinstance(excinfo.value, ValueError)

    def test_unknown_override_lists_valid_fields(self, small_world):
        with pytest.raises(ValueError, match="unknown config override"):
            build_policy("via", small_world, no_such_knob=3)
        with pytest.raises(ValueError, match="epsilon"):
            # The message lists the valid fields.
            build_policy("via", small_world, no_such_knob=3)

    def test_needs_world_enforced(self):
        with pytest.raises(ValueError, match="needs a world"):
            build_policy("via")
        # World-free entries build without one.
        assert build_policy("default").name == "default"
        assert build_policy("multipath-ucb").name.startswith("multipath-ucb")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register("via", description="dup")(lambda *a, **k: None)

    def test_capability_flags(self):
        via = REGISTRY.get("via")
        assert via.supports_batch and via.supports_checkpoint
        assert not via.supports_multipath
        multipath = REGISTRY.get("multipath-ucb")
        assert multipath.supports_multipath and multipath.supports_checkpoint
        assert not multipath.supports_batch

    def test_schema_carries_defaults(self):
        entry = REGISTRY.get("via")
        fields = {f.name: f.default for f in entry.schema}
        assert fields["epsilon"] == 0.03
        assert "metric" not in fields and "seed" not in fields

    def test_composite_overrides_split(self, small_world):
        cached = build_policy(
            "cached-via", small_world, ttl_hours=3.0, epsilon=0.1
        )
        assert isinstance(cached, CachedAssignmentPolicy)
        assert cached.inner.config.epsilon == 0.1
        assert "ttl=3h" in cached.name
        sharded = build_policy("sharded-via", small_world, n_shards=2)
        assert isinstance(sharded, ShardedPolicy)
        assert len(sharded.shards) == 2


class TestSpecBitIdentity:
    """Registry-name specs reproduce direct construction exactly."""

    def test_via_spec_matches_direct(self, small_world, small_trace):
        direct = make_via(
            "rtt_ms", inter_relay=world_inter_relay(small_world), seed=42
        )
        via_spec = PolicySpec.via("rtt_ms", seed=42).build(small_world)
        a = replay(small_world, small_trace, direct, seed=7)
        b = replay(small_world, small_trace, via_spec, seed=7)
        assert _outcome_key(a) == _outcome_key(b)

    def test_strawmen_and_baselines_match_direct(self, small_world, small_trace):
        inter_relay = world_inter_relay(small_world)
        directs = {
            "default": DefaultPolicy(),
            "oracle": OraclePolicy(small_world, "rtt_ms"),
            "strawman-prediction": make_strawman_prediction(
                "rtt_ms", inter_relay=inter_relay, seed=43
            ),
            "strawman-exploration": make_strawman_exploration("rtt_ms", seed=44),
        }
        specs = {
            "default": PolicySpec.default(),
            "oracle": PolicySpec.oracle("rtt_ms"),
            "strawman-prediction": PolicySpec.strawman_prediction("rtt_ms"),
            "strawman-exploration": PolicySpec.strawman_exploration("rtt_ms"),
        }
        for kind, direct in directs.items():
            spec_built = specs[kind].build(small_world)
            a = replay(small_world, small_trace, direct, seed=5)
            b = replay(small_world, small_trace, spec_built, seed=5)
            assert _outcome_key(a) == _outcome_key(b), kind

    def test_standard_policies_routes_registry(self, small_world):
        policies = standard_policies(small_world, "rtt_ms", seed=42)
        assert set(policies) == {
            "default", "oracle", "via", "strawman-prediction",
            "strawman-exploration",
        }
        assert isinstance(policies["via"], ViaPolicy)
        # Strawman seed convention survives the registry routing.
        assert policies["strawman-prediction"].config.seed == 43
        assert policies["strawman-exploration"].config.seed == 44

    def test_spec_rejects_unknown_kind_with_suggestions(self, small_world):
        with pytest.raises(ValueError, match="unknown policy spec kind"):
            PolicySpec(kind="viaa").build(small_world)

    def test_multipath_spec_builds(self, small_world):
        policy = PolicySpec.multipath("rtt_ms", seed=9, mode="split").build(
            small_world
        )
        assert isinstance(policy, MultipathBanditPolicy)
        assert policy.mode == "split"


@pytest.fixture(scope="module")
def blocked_trace(small_world):
    """600 calls on the small world, one in ten NAT-blocked."""
    trace = generate_trace(
        small_world.topology,
        WorkloadConfig(n_calls=600, n_pairs=60, frac_direct_blocked=0.1, seed=19),
        n_days=8,
    )
    assert any(c.direct_blocked for c in trace.calls)
    return trace


class TestReplayConformance:
    """Every registry entry through the one replay loop, as chunks of one
    and as chunks of many: the contract any selector must meet."""

    @pytest.mark.parametrize("batch_calls", [1, 64])
    @pytest.mark.parametrize("name", policy_names())
    def test_entry_replays(self, small_world, blocked_trace, name, batch_calls):
        def run():
            policy = build_policy(name, small_world, seed=3)
            return replay(
                small_world, blocked_trace, policy, seed=4, batch_calls=batch_calls
            )

        result = run()
        # Exactly one outcome per call, in trace order.
        assert [o.call for o in result.outcomes] == list(blocked_trace.calls)
        for outcome in result.outcomes:
            call = outcome.call
            assert outcome.option in small_world.options_for_pair(
                call.src_asn, call.dst_asn
            )
            if call.direct_blocked:
                assert outcome.option.is_relayed
        # A freshly built policy replays to the same numbers.
        assert _outcome_key(run()) == _outcome_key(result)


class TestPoliciesCli:
    def test_listing_exits_zero(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in policy_names():
            assert name in out

    def test_detail_exits_zero(self, capsys):
        assert main(["policies", "--name", "multipath-ucb"]) == 0
        out = capsys.readouterr().out
        assert "split_weight" in out
        assert "multipath (assign_paths)" in out

    def test_unknown_name_exits_two(self, capsys):
        assert main(["policies", "--name", "via-vectr"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "did you mean" in err


class TestControllerPolicyField:
    def test_testbed_rejects_unknown_policy(self):
        from repro.deployment import TestbedConfig

        with pytest.raises(UnknownPolicyError, match="did you mean"):
            TestbedConfig(policy="via-vectr")

    def test_testbed_rejects_non_via_policy(self):
        from repro.deployment import TestbedConfig

        with pytest.raises(ValueError, match="not a ViaPolicy variant"):
            TestbedConfig(policy="multipath-ucb")

    def test_testbed_accepts_via_variant(self):
        from repro.deployment import TestbedConfig
        from repro.deployment.testbed import _testbed_policy_class

        config = TestbedConfig(policy="strawman-prediction")
        assert _testbed_policy_class(config.policy) is ViaPolicy
