"""Multipath relaying: path sets, combined rewards, bandit, chaos replay.

The reward-model bounds are pinned as hypothesis properties:

* duplication is elementwise **at least as good as the best** constituent
  path (min RTT/jitter, product loss);
* splitting lies **between the best and worst** constituent path
  (packet-weighted blend).

The chaos tests drive a :class:`~repro.deployment.faults.FaultPlan`
relay outage through replay and check the paper-level claims: a
duplicated call survives a single-path outage, a split call degrades by
exactly the lost path's share, and the engine's dead/degraded accounting
distinguishes losing one path from losing both.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.multipath import (
    MultipathBanditPolicy,
    PathSet,
    RandomPathSetPolicy,
    combine_duplicate,
    combine_split,
    combined_metrics,
)
from repro.core.registry import build_policy
from repro.deployment.faults import FaultPlan
from repro.netmodel import TopologyConfig, WorldConfig, build_world
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.netmodel.world import RelayOutage
from repro.simulation import PolicySpec, ReplayTask, run_grid
from repro.simulation.replay import replay
from repro.telephony.call import Call
from repro.workload import WorkloadConfig, generate_trace

pytestmark = pytest.mark.multipath

metrics_triples = st.builds(
    PathMetrics,
    rtt_ms=st.floats(min_value=1.0, max_value=3000.0),
    loss_rate=st.floats(min_value=0.0, max_value=1.0),
    jitter_ms=st.floats(min_value=0.0, max_value=60.0),
)


def _call(call_id=1, t_hours=0.5, src=100, dst=200, blocked=False):
    return Call(
        call_id=call_id,
        t_hours=t_hours,
        src_asn=src,
        dst_asn=dst,
        src_country="US",
        dst_country="DE",
        src_user=1,
        dst_user=2,
        direct_blocked=blocked,
    )


class TestPathSet:
    def test_distinct_paths_required(self):
        with pytest.raises(ValueError, match="distinct"):
            PathSet(DIRECT, DIRECT)

    def test_mode_validated(self):
        with pytest.raises(ValueError, match="unknown PathSet mode"):
            PathSet(DIRECT, RelayOption.bounce(0), mode="mirror")

    def test_split_weight_validated(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="split_weight"):
                PathSet(DIRECT, RelayOption.bounce(0), split_weight=bad)

    def test_relay_ids_distinct_ordered(self):
        ps = PathSet(RelayOption.transit(3, 1), RelayOption.bounce(1))
        assert ps.relay_ids() == (3, 1)

    def test_reversed_round_trips(self):
        ps = PathSet(
            RelayOption.transit(3, 1), RelayOption.bounce(2), mode="split",
            split_weight=0.7,
        )
        back = ps.reversed().reversed()
        assert back == ps
        assert ps.reversed().primary == RelayOption.transit(1, 3)

    def test_str_forms(self):
        dup = PathSet(DIRECT, RelayOption.bounce(0))
        assert str(dup).startswith("dup(")
        split = PathSet(DIRECT, RelayOption.bounce(0), mode="split")
        assert str(split).startswith("split[0.5](")


class TestCombinedRewardBounds:
    @given(primary=metrics_triples, secondary=metrics_triples)
    def test_duplicate_bounded_by_best_path(self, primary, secondary):
        combined = combine_duplicate(primary, secondary)
        assert combined.rtt_ms == min(primary.rtt_ms, secondary.rtt_ms)
        assert combined.jitter_ms == min(primary.jitter_ms, secondary.jitter_ms)
        # Independent-loss product: never worse than the better path.
        assert combined.loss_rate <= min(primary.loss_rate, secondary.loss_rate)

    @given(
        primary=metrics_triples,
        secondary=metrics_triples,
        weight=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_split_bounded_by_constituents(self, primary, secondary, weight):
        combined = combine_split(primary, secondary, weight)
        for attr in ("rtt_ms", "loss_rate", "jitter_ms"):
            lo = min(getattr(primary, attr), getattr(secondary, attr))
            hi = max(getattr(primary, attr), getattr(secondary, attr))
            value = getattr(combined, attr)
            assert lo - 1e-9 <= value <= hi + 1e-9

    @given(primary=metrics_triples, secondary=metrics_triples)
    def test_dispatch_matches_mode(self, primary, secondary):
        a, b = DIRECT, RelayOption.bounce(0)
        dup = combined_metrics(PathSet(a, b), primary, secondary)
        assert dup == combine_duplicate(primary, secondary)
        split = combined_metrics(
            PathSet(a, b, mode="split", split_weight=0.25), primary, secondary
        )
        assert split == combine_split(primary, secondary, 0.25)

    def test_split_weight_validated(self):
        m = PathMetrics(100.0, 0.01, 5.0)
        with pytest.raises(ValueError, match="weight"):
            combine_split(m, m, 0.0)


class TestBanditPolicy:
    OPTIONS = [DIRECT, RelayOption.bounce(0), RelayOption.bounce(1)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="mode"):
            MultipathBanditPolicy(mode="mirror")
        with pytest.raises(ValueError, match="max_singles"):
            MultipathBanditPolicy(max_singles=1)
        with pytest.raises(ValueError, match="epsilon"):
            MultipathBanditPolicy(epsilon=1.5)

    @pytest.mark.parametrize("coef", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_exploration_coef(self, coef):
        """Built, ``exploration_coef=-1.0`` used to fail mid-replay with a
        math domain error at the first UCB comparison."""
        with pytest.raises(ValueError, match="exploration_coef"):
            MultipathBanditPolicy(exploration_coef=coef)

    def test_needs_two_distinct_options(self):
        policy = MultipathBanditPolicy(epsilon=0.0)
        with pytest.raises(ValueError, match=">= 2 distinct options"):
            policy.assign_paths(_call(), [DIRECT])

    def test_converges_to_cheapest_pair(self):
        policy = MultipathBanditPolicy(epsilon=0.0, seed=1)
        cheap = PathSet(DIRECT, RelayOption.bounce(0))
        good = PathMetrics(30.0, 0.0, 1.0)
        bad = PathMetrics(400.0, 0.05, 20.0)
        for i in range(30):
            call = _call(call_id=i)
            choice = policy.assign_paths(call, self.OPTIONS)
            per_path = good if choice == cheap else bad
            policy.observe_paths(
                call, choice, per_path, per_path,
                combined_metrics(choice, per_path, per_path),
            )
        final = [
            policy.assign_paths(_call(call_id=100 + i), self.OPTIONS)
            for i in range(5)
        ]
        assert all(c == cheap for c in final)

    def test_outage_repick_avoids_down_relay(self):
        policy = MultipathBanditPolicy(epsilon=0.0, seed=1)
        policy.assign_paths(_call(), self.OPTIONS)  # build the arm space
        policy.set_down_relays({0})
        for i in range(10):
            choice = policy.assign_paths(_call(call_id=i + 2), self.OPTIONS)
            assert 0 not in choice.relay_ids()
        assert policy.n_outage_repicks > 0
        policy.set_down_relays(())
        assert policy.down_relays == frozenset()

    def test_all_arms_down_keeps_choice(self):
        policy = MultipathBanditPolicy(epsilon=0.0, seed=1, max_singles=2)
        policy.assign_paths(_call(), [RelayOption.bounce(0), RelayOption.bounce(1)])
        policy.set_down_relays({0, 1})
        choice = policy.assign_paths(
            _call(call_id=2), [RelayOption.bounce(0), RelayOption.bounce(1)]
        )
        assert set(choice.relay_ids()) <= {0, 1}

    def test_checkpoint_round_trip(self, small_world, small_trace):
        policy = build_policy("multipath-ucb", seed=21)
        replay(small_world, small_trace, policy, seed=3)
        state = policy.state_dict()
        twin = build_policy("multipath-ucb", seed=21)
        twin.load_state_dict(state)
        assert twin.state_dict() == state
        # The restored twin continues identically.
        probe_calls = list(small_trace)[:50]
        for call in probe_calls:
            options = small_world.options_for_pair(call.src_asn, call.dst_asn)
            if call.direct_blocked:
                options = [o for o in options if o.is_relayed]
            assert policy.assign_paths(call, options) == twin.assign_paths(
                call, options
            )

    def test_checkpoint_rejects_wrong_metric(self):
        policy = MultipathBanditPolicy("rtt_ms")
        other = MultipathBanditPolicy("loss_rate")
        with pytest.raises(ValueError, match="optimises"):
            other.load_state_dict(policy.state_dict())

    def test_flipped_pair_shares_state(self):
        policy = MultipathBanditPolicy(epsilon=0.0, seed=1)
        forward = _call(call_id=1, src=100, dst=200)
        backward = _call(call_id=2, src=200, dst=100)
        policy.assign_paths(forward, self.OPTIONS)
        policy.assign_paths(backward, self.OPTIONS)
        assert len(policy._bandits) == 1


class _FixedPathPolicy:
    """Test stub: always the same path set, never learns."""

    def __init__(self, path_set: PathSet) -> None:
        self.name = f"fixed[{path_set}]"
        self.path_set = path_set

    def assign_paths(self, call, options):
        return self.path_set

    def observe_paths(self, call, path_set, primary, secondary, combined):
        return None


def _chaos_world(n_days: int = 2):
    """A tiny world where relay 0 is down for all of day 1."""
    world = build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=5, n_relays=3, seed=2),
            n_days=n_days,
            seed=4,
        )
    )
    plan = FaultPlan(
        relay_outages=(
            RelayOutage(relay_id=0, start_hours=24.0, end_hours=48.0),
        )
    )
    for outage in plan.relay_outages:
        world.add_outage(outage)
    return world


def _chaos_trace(world, n_calls: int = 400):
    return generate_trace(
        world.topology,
        WorkloadConfig(n_calls=n_calls, n_pairs=12, seed=8),
        n_days=2,
    )


@pytest.mark.faults
class TestMultipathUnderChaos:
    def test_duplicated_call_survives_single_path_outage(self):
        world = _chaos_world()
        trace = _chaos_trace(world)
        stub = _FixedPathPolicy(
            PathSet(RelayOption.bounce(0), RelayOption.bounce(1))
        )
        result = replay(world, trace, stub, seed=5)
        n_outage = sum(result.outage_flags)
        assert n_outage > 0
        # Exactly one path down: every outage call degraded, none dead.
        assert result.n_degraded_assignments == n_outage
        assert result.n_dead_assignments == 0
        # Survival: the delivered stream never blackholes (loss product
        # keeps the live path's loss; best-of RTT keeps the live RTT).
        for outcome, flagged in zip(result.outcomes, result.outage_flags):
            if flagged:
                assert outcome.metrics.loss_rate < 1.0
                assert outcome.metrics.rtt_ms < 3000.0

    def test_split_call_degrades_by_lost_share(self):
        world = _chaos_world()
        trace = _chaos_trace(world)
        weight = 0.6
        stub = _FixedPathPolicy(
            PathSet(
                RelayOption.bounce(1), RelayOption.bounce(0), mode="split",
                split_weight=weight,
            )
        )
        result = replay(world, trace, stub, seed=5)
        assert result.n_degraded_assignments == sum(result.outage_flags)
        for outcome, flagged in zip(result.outcomes, result.outage_flags):
            if flagged:
                # The dead secondary carries (1 - weight) of the stream.
                assert outcome.metrics.loss_rate >= (1.0 - weight) - 1e-9
                assert outcome.metrics.loss_rate < 1.0

    def test_both_paths_down_is_dead(self):
        world = _chaos_world()
        trace = _chaos_trace(world)
        stub = _FixedPathPolicy(
            PathSet(RelayOption.bounce(0), RelayOption.transit(0, 1))
        )
        result = replay(world, trace, stub, seed=5)
        n_outage = sum(result.outage_flags)
        assert n_outage > 0
        assert result.n_dead_assignments == n_outage
        assert result.n_degraded_assignments == 0

    def test_bandit_routes_around_outage(self):
        world = _chaos_world()
        trace = _chaos_trace(world, n_calls=600)
        policy = build_policy("multipath-ucb", seed=11)
        result = replay(world, trace, policy, seed=5)
        # set_down_relays sync means the bandit repicks live arms.
        assert result.n_dead_assignments == 0
        assert policy.n_outage_repicks >= 0
        assert len(result.outcomes) == len(trace)


class TestReplayIntegration:
    def test_replay_scores_combined_stream(self, small_world, small_trace):
        policy = build_policy("multipath-ucb", seed=13)
        result = replay(small_world, small_trace, policy, seed=2)
        assert len(result.outcomes) == len(small_trace)
        assert result.policy_name == policy.name
        # Without outages the degraded/dead counters stay zero.
        assert result.n_degraded_assignments == 0
        assert result.n_dead_assignments == 0

    def test_multipath_branch_preempts_batch_path(self, small_world, small_trace):
        serial = replay(
            small_world, small_trace, build_policy("multipath-ucb", seed=13),
            seed=2,
        )
        batched = replay(
            small_world, small_trace, build_policy("multipath-ucb", seed=13),
            seed=2, batch_calls=64,
        )
        assert [o.metrics for o in serial.outcomes] == [
            o.metrics for o in batched.outcomes
        ]

    def test_run_grid_accepts_multipath_specs(self, small_world, small_trace):
        tasks = [
            ReplayTask(policy=PolicySpec.multipath("rtt_ms", seed=42), label="mp"),
            ReplayTask(
                policy=PolicySpec(kind="multipath-random", seed=42), label="rand"
            ),
        ]
        results = run_grid(tasks, world=small_world, trace=small_trace)
        assert [r.task.label for r in results] == ["mp", "rand"]
        for r in results:
            assert len(r.result.outcomes) == len(small_trace)

    def test_random_policy_is_seeded(self, small_world, small_trace):
        a = replay(
            small_world, small_trace, RandomPathSetPolicy(seed=6), seed=2
        )
        b = replay(
            small_world, small_trace, RandomPathSetPolicy(seed=6), seed=2
        )
        assert [o.metrics for o in a.outcomes] == [o.metrics for o in b.outcomes]
