"""Unit tests for repro.simulation.replay and experiment plumbing."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.baselines import DefaultPolicy, OraclePolicy, make_via
from repro.core.hybrid import ProbePlan
from repro.core.registry import build_policy
from repro.netmodel import TopologyConfig, WorldConfig, build_world
from repro.netmodel.options import DIRECT
from repro.netmodel.world import RelayOutage
from repro.simulation import (
    ExperimentPlan,
    ReplayResult,
    dense_pairs,
    evaluation_slice,
    make_inter_relay_lookup,
    replay,
    run_policies,
    standard_policies,
)
from repro.telephony.quality import QualityModel
from repro.workload import WorkloadConfig, generate_trace


@pytest.fixture(scope="module")
def tiny_trace(small_trace):
    """First 800 calls of the shared trace (fast replay)."""
    from repro.workload.trace import TraceDataset

    return TraceDataset(calls=small_trace.calls[:800], n_days=small_trace.n_days)


class TestReplay:
    def test_outcome_per_call_in_order(self, small_world, tiny_trace):
        result = replay(small_world, tiny_trace, DefaultPolicy(), seed=1)
        assert len(result) == len(tiny_trace)
        assert [o.call for o in result.outcomes] == list(tiny_trace.calls)

    def test_default_policy_yields_direct_outcomes(self, small_world, tiny_trace):
        result = replay(small_world, tiny_trace, DefaultPolicy(), seed=1)
        assert all(o.option is DIRECT for o in result.outcomes)
        assert result.relayed_fraction == 0.0

    def test_deterministic_given_seed(self, small_world, tiny_trace):
        r1 = replay(small_world, tiny_trace, DefaultPolicy(), seed=7)
        r2 = replay(small_world, tiny_trace, DefaultPolicy(), seed=7)
        assert [o.metrics for o in r1.outcomes] == [o.metrics for o in r2.outcomes]

    def test_seed_changes_outcomes(self, small_world, tiny_trace):
        r1 = replay(small_world, tiny_trace, DefaultPolicy(), seed=1)
        r2 = replay(small_world, tiny_trace, DefaultPolicy(), seed=2)
        assert [o.metrics for o in r1.outcomes] != [o.metrics for o in r2.outcomes]

    def test_option_mix_sums_to_one(self, small_world, tiny_trace):
        policy = OraclePolicy(small_world, "rtt_ms")
        result = replay(small_world, tiny_trace, policy, seed=1)
        assert sum(result.option_mix().values()) == pytest.approx(1.0)

    def test_ratings_sampled_at_requested_fraction(self, small_world, tiny_trace):
        result = replay(
            small_world, tiny_trace, DefaultPolicy(), seed=1,
            quality=QualityModel(rating_fraction=0.5),
        )
        rated = sum(o.rating is not None for o in result.outcomes)
        assert rated == pytest.approx(0.5 * len(tiny_trace), rel=0.2)

    def test_policy_observes_every_call(self, small_world, tiny_trace):
        policy = make_via("rtt_ms", inter_relay=make_inter_relay_lookup(small_world))
        replay(small_world, tiny_trace, policy, seed=1)
        assert policy.history.total_calls() == len(tiny_trace)


class TestDensePairs:
    def test_threshold(self, small_trace):
        pairs = dense_pairs(small_trace, min_calls=50)
        counts = small_trace.pair_counts()
        assert all(counts[p] >= 50 for p in pairs)
        assert all(counts[p] < 50 for p in counts if p not in pairs)

    def test_rejects_bad_min(self, small_trace):
        with pytest.raises(ValueError):
            dense_pairs(small_trace, min_calls=0)


class TestEvaluationSlice:
    def test_warmup_trims_early_calls(self, small_world, tiny_trace):
        result = replay(small_world, tiny_trace, DefaultPolicy(), seed=1)
        kept = evaluation_slice(result.outcomes, warmup_days=2)
        assert all(o.call.t_hours >= 48.0 for o in kept)

    def test_pair_filter(self, small_world, tiny_trace):
        result = replay(small_world, tiny_trace, DefaultPolicy(), seed=1)
        pair = tiny_trace.calls[0].as_pair
        kept = evaluation_slice(result.outcomes, pairs={pair})
        assert kept and all(o.call.as_pair == pair for o in kept)


class TestExperimentPlan:
    def test_run_and_evaluate(self, small_world, tiny_trace):
        plan = ExperimentPlan(world=small_world, trace=tiny_trace,
                              warmup_days=1, min_pair_calls=10)
        results = plan.run({"default": DefaultPolicy()}, seed=3)
        outcomes = plan.evaluate(results["default"])
        assert outcomes
        assert all(o.call.t_hours >= 24.0 for o in outcomes)
        assert all(o.call.as_pair in plan.dense for o in outcomes)

    def test_dense_cached(self, small_world, tiny_trace):
        plan = ExperimentPlan(world=small_world, trace=tiny_trace, min_pair_calls=10)
        assert plan.dense is plan.dense

    def test_standard_policies_names(self, small_world):
        policies = standard_policies(small_world, "rtt_ms")
        assert set(policies) == {
            "default", "oracle", "via", "strawman-prediction", "strawman-exploration",
        }
        slim = standard_policies(small_world, "rtt_ms", include_strawmen=False)
        assert set(slim) == {"default", "oracle", "via"}

    def test_run_policies_keys_match(self, small_world, tiny_trace):
        results = run_policies(
            small_world, tiny_trace, {"default": DefaultPolicy()}, seed=0
        )
        assert set(results) == {"default"}
        assert results["default"].policy_name == "default"


class TestOutageDegradationValidation:
    """Regression: a typo'd metric used to surface as an opaque numpy
    TypeError (``np.mean`` over ``None``s); it must be a clear KeyError."""

    def test_unknown_metric_raises_keyerror_listing_valid_names(self):
        result = ReplayResult(policy_name="x")
        result.outage_flags.append(True)
        with pytest.raises(KeyError, match="rtt_ms.*loss_rate.*jitter_ms"):
            result.outage_degradation("rtt")  # typo for "rtt_ms"

    def test_unknown_metric_rejected_even_without_outages(self):
        with pytest.raises(KeyError):
            ReplayResult(policy_name="x").outage_degradation("latency")

    def test_valid_metric_without_outage_windows_returns_none(self):
        assert ReplayResult(policy_name="x").outage_degradation("rtt_ms") is None


class _ProbeEverything:
    """Stub hybrid policy: probes the first two relayed options of every
    call and always commits to the first (relayed) candidate."""

    name = "probe-stub"

    def assign(self, call, options):
        return DIRECT

    def observe(self, call, option, metrics):
        return None

    def plan_probe(self, call, options):
        relayed = [o for o in options if o.is_relayed]
        if len(relayed) < 2:
            return None
        return ProbePlan(candidates=tuple(relayed[:2]), primary=relayed[0])

    def commit_probe(self, call, plan, samples):
        return plan.candidates[0]

    def probe_weight(self, call):
        return 0.2


class TestProbedOutageAccounting:
    """Regression: the hybrid-probe path ``continue``d before the
    dead-assignment check, so probed calls committed to a down relay were
    never counted in ``n_dead_assignments``."""

    def test_probed_dead_assignments_counted(self):
        world = build_world(
            WorldConfig(
                topology=TopologyConfig(n_countries=5, n_relays=4, seed=31),
                n_days=2,
                seed=31,
            )
        )
        # Every relay is down for the whole trace, so every committed
        # relayed option is a dead assignment.
        for rid in world.topology.relay_ids:
            world.add_outage(
                RelayOutage(relay_id=rid, start_hours=0.0, end_hours=48.0)
            )
        trace = generate_trace(
            world.topology,
            WorkloadConfig(n_calls=200, n_pairs=20, seed=31),
            n_days=2,
        )
        result = replay(world, trace, _ProbeEverything(), seed=1)
        probed_relayed = sum(o.option.is_relayed for o in result.outcomes)
        assert probed_relayed > 0
        assert result.n_dead_assignments == probed_relayed


# ---------------------------------------------------------------------------
# Pinned numbers
# ---------------------------------------------------------------------------

_PIN_TOPOLOGY = TopologyConfig(n_countries=8, n_relays=5, seed=41)


def _pin_world(with_outages: bool):
    world = build_world(WorldConfig(topology=_PIN_TOPOLOGY, n_days=4, seed=43))
    if with_outages:
        # Two overlapping windows: the down set goes {} -> {a} -> {a, b}
        # -> {b} -> {}, so chunks are trimmed at four transitions.
        first, second = world.topology.relay_ids[:2]
        world.add_outage(RelayOutage(relay_id=first, start_hours=20.0, end_hours=50.0))
        world.add_outage(RelayOutage(relay_id=second, start_hours=40.0, end_hours=70.0))
    return world


@pytest.fixture(scope="module")
def pin_worlds():
    return {False: _pin_world(False), True: _pin_world(True)}


@pytest.fixture(scope="module")
def pin_trace(pin_worlds):
    return generate_trace(
        pin_worlds[False].topology,
        WorkloadConfig(n_calls=1_500, n_pairs=60, frac_direct_blocked=0.1, seed=47),
        n_days=4,
    )


def _replay_digest(result) -> tuple:
    sha = hashlib.sha256()
    for o in result.outcomes:
        m = o.metrics
        sha.update(
            f"{o.call.call_id}|{o.option}|{m.rtt_ms!r}|{m.loss_rate!r}|"
            f"{m.jitter_ms!r}|{o.rating!r}\n".encode()
        )
    return (
        sha.hexdigest()[:16],
        len(result.outcomes),
        result.n_dead_assignments,
        result.n_degraded_assignments,
        sum(result.outage_flags),
    )


#: id -> (policy name, overrides, batch_calls, rated + outages?, digest).
#: The digests were captured from the separate serial, batched and
#: multipath loops that replay()'s one loop replaced; any change to the
#: loop must still replay them bit for bit.
_PINNED = {
    "via-b1": (
        "via", {}, 1, False,
        ("30c61f352623e372", 1500, 0, 0, 0),
    ),
    "via-b64": (
        "via", {}, 64, False,
        ("dea90412f96ec301", 1500, 0, 0, 0),
    ),
    "via-b2000": (
        "via", {}, 2000, False,
        ("c8bf2b657c67fec5", 1500, 0, 0, 0),
    ),
    "via-b1-rated-outages": (
        "via", {}, 1, True,
        ("ede8d7ca3c0ee572", 1500, 0, 0, 788),
    ),
    "via-b64-rated-outages": (
        "via", {}, 64, True,
        ("28f1d9f742f856a4", 1500, 0, 0, 788),
    ),
    "via-b2000-rated-outages": (
        "via", {}, 2000, True,
        ("3417dc5b079864fd", 1500, 0, 0, 788),
    ),
    # Re-pinned when the load-cap diversion learned to skip down relays:
    # its 35 dead assignments went to 0.
    "via-gated": (
        "via", {"budget": 0.3, "per_relay_cap": 0.15}, 1, True,
        ("ab7a768e2d01018b", 1500, 0, 0, 788),
    ),
    "default-b64": (
        "default", {}, 64, True,
        ("5349598d8bb3df26", 1500, 0, 0, 788),
    ),
    "oracle": (
        "oracle", {}, 1, True,
        ("c551501d1db611e0", 1500, 56, 0, 788),
    ),
    "cached-via-b16": (
        "cached-via", {}, 16, True,
        ("237ac37ca6c76976", 1500, 147, 0, 788),
    ),
    "sharded-via-b128": (
        "sharded-via", {}, 128, True,
        ("1b9c6f6669f7fa74", 1500, 0, 0, 788),
    ),
    "multipath-ucb-b1": (
        "multipath-ucb", {}, 1, True,
        ("b579ace6e40f492e", 1500, 0, 5, 788),
    ),
    "multipath-ucb-b64": (
        "multipath-ucb", {}, 64, True,
        ("b579ace6e40f492e", 1500, 0, 5, 788),
    ),
    "hybrid-reactive-b1": (
        "hybrid-reactive", {}, 1, True,
        ("4b5406dad406d615", 1500, 3, 0, 788),
    ),
    "hybrid-reactive-b64": (
        "hybrid-reactive", {}, 64, True,
        ("4b5406dad406d615", 1500, 3, 0, 788),
    ),
}


@pytest.mark.parametrize("config_id", list(_PINNED))
def test_replay_digest_is_pinned(pin_worlds, pin_trace, config_id):
    """Outcome digest (call id, option, metric reprs, rating) and every
    ``ReplayResult`` counter, per configuration, against constants."""
    name, overrides, batch_calls, rated_outages, pinned = _PINNED[config_id]
    world = pin_worlds[rated_outages]
    policy = build_policy(name, world, seed=5, **overrides)
    result = replay(
        world,
        pin_trace,
        policy,
        seed=9,
        quality=QualityModel(rating_fraction=0.3) if rated_outages else None,
        batch_calls=batch_calls,
    )
    assert _replay_digest(result) == pinned
