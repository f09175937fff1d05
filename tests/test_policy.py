"""Unit tests for repro.core.policy (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import ViaConfig, ViaPolicy
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.telephony.call import Call

OPTIONS = [DIRECT, RelayOption.bounce(0), RelayOption.bounce(1), RelayOption.transit(0, 1)]


def make_call(call_id=0, t_hours=1.0, src_asn=1001, dst_asn=1002) -> Call:
    return Call(
        call_id=call_id, t_hours=t_hours, src_asn=src_asn, dst_asn=dst_asn,
        src_country="US", dst_country="IN", src_user=0, dst_user=1,
    )


def metrics(rtt: float) -> PathMetrics:
    return PathMetrics(rtt_ms=rtt, loss_rate=0.01, jitter_ms=5.0)


def run_day(policy: ViaPolicy, day: int, costs: dict[RelayOption, float], n_calls: int = 60,
            noise: float = 0.0, seed: int = 0) -> list[RelayOption]:
    """Replay one synthetic day where each option has a fixed true cost."""
    rng = np.random.default_rng(seed + day)
    choices = []
    for i in range(n_calls):
        call = make_call(call_id=day * 1000 + i, t_hours=day * 24.0 + 0.2 + i * 0.01)
        option = policy.assign(call, OPTIONS)
        choices.append(option)
        cost = costs[option] * (1.0 + noise * float(rng.standard_normal()) * 0.1)
        policy.observe(call, option, metrics(max(1.0, cost)))
    return choices


class TestViaConfig:
    def test_defaults_valid(self):
        ViaConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topk_mode": "bogus"},
            {"selector": "bogus"},
            {"epsilon": 1.5},
            {"refresh_hours": 0.0},
            {"budget": 2.0},
            {"fixed_k": 0},
            {"greedy_epsilon": -0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ViaConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ucb_mode", "x"),
            ("max_k", 0),
            ("max_k", True),
            ("exploration_coef", -1.0),
            ("exploration_coef", float("nan")),
            ("refresh_hours", float("nan")),
            ("refresh_hours", float("inf")),
            ("granularity", "x"),
            ("min_direct_samples", 0),
            ("seed", True),
            ("seed", -1),
            ("fixed_k", True),
            ("per_relay_window", 0),
        ],
    )
    def test_rejects_values_that_would_fail_while_serving(self, field, value):
        """Each of these used to pass construction and fail (or mean
        something else) only once a controller was answering calls."""
        with pytest.raises(ValueError, match=field):
            ViaConfig(**{field: value})

    def test_with_metric(self):
        config = ViaConfig(metric="rtt_ms", epsilon=0.2)
        other = config.with_metric("loss_rate")
        assert other.metric == "loss_rate"
        assert other.epsilon == 0.2


class TestAssignBasics:
    def test_returns_an_offered_option(self):
        policy = ViaPolicy(ViaConfig(seed=1))
        for i in range(20):
            call = make_call(call_id=i, t_hours=0.5 + i * 0.01)
            assert policy.assign(call, OPTIONS) in OPTIONS

    def test_rejects_empty_options(self):
        policy = ViaPolicy()
        with pytest.raises(ValueError):
            policy.assign(make_call(), [])

    def test_refresh_happens_per_period(self):
        policy = ViaPolicy(ViaConfig(refresh_hours=24.0))
        policy.assign(make_call(t_hours=1.0), OPTIONS)
        policy.assign(make_call(t_hours=2.0), OPTIONS)
        assert policy.n_refreshes == 1
        policy.assign(make_call(t_hours=25.0), OPTIONS)
        assert policy.n_refreshes == 2

    def test_custom_refresh_cadence(self):
        policy = ViaPolicy(ViaConfig(refresh_hours=6.0))
        for t in (1.0, 7.0, 13.0, 19.0):
            policy.assign(make_call(t_hours=t), OPTIONS)
        assert policy.n_refreshes == 4

    def test_epsilon_one_explores_everything(self):
        policy = ViaPolicy(ViaConfig(epsilon=1.0, seed=3))
        seen = set()
        for i in range(200):
            seen.add(policy.assign(make_call(call_id=i, t_hours=0.5), OPTIONS))
        assert seen == set(OPTIONS)

    def test_epsilon_counted(self):
        policy = ViaPolicy(ViaConfig(epsilon=1.0, seed=3))
        for i in range(10):
            policy.assign(make_call(call_id=i), OPTIONS)
        assert policy.n_epsilon_explorations == 10


class TestLearning:
    def test_via_converges_to_best_option(self):
        policy = ViaPolicy(ViaConfig(epsilon=0.05, seed=5))
        costs = {DIRECT: 300.0, OPTIONS[1]: 80.0, OPTIONS[2]: 200.0, OPTIONS[3]: 220.0}
        run_day(policy, 0, costs)  # cold start day
        choices = run_day(policy, 1, costs)  # predictor now active
        best_share = sum(c == OPTIONS[1] for c in choices) / len(choices)
        assert best_share > 0.5

    def test_argmin_mode_follows_prediction(self):
        policy = ViaPolicy(ViaConfig(topk_mode="argmin", epsilon=0.0, seed=6))
        costs = {DIRECT: 100.0, OPTIONS[1]: 300.0, OPTIONS[2]: 310.0, OPTIONS[3]: 320.0}
        # Day 0: no predictions -> argmin falls back to DIRECT (and only
        # ever observes it, a real weakness of pure prediction).
        choices0 = run_day(policy, 0, costs)
        assert all(c is DIRECT for c in choices0)
        choices1 = run_day(policy, 1, costs)
        assert all(c is DIRECT for c in choices1)

    def test_bandit_recovers_from_stale_prediction(self):
        """Yesterday's best degrades overnight; UCB should shift away,
        which is exactly what pure prediction cannot do."""
        via = ViaPolicy(ViaConfig(epsilon=0.05, seed=7))
        day0 = {DIRECT: 300.0, OPTIONS[1]: 80.0, OPTIONS[2]: 120.0, OPTIONS[3]: 250.0}
        day1 = {DIRECT: 300.0, OPTIONS[1]: 400.0, OPTIONS[2]: 120.0, OPTIONS[3]: 250.0}
        run_day(via, 0, day0)
        run_day(via, 1, day0)
        choices = run_day(via, 2, day1, n_calls=120)
        late = choices[60:]
        assert sum(c == OPTIONS[2] for c in late) > sum(c == OPTIONS[1] for c in late)

    def test_greedy_selector_exploits(self):
        policy = ViaPolicy(
            ViaConfig(topk_mode="all", selector="greedy", greedy_epsilon=0.1,
                      epsilon=0.0, use_tomography=False, seed=8)
        )
        costs = {DIRECT: 300.0, OPTIONS[1]: 80.0, OPTIONS[2]: 200.0, OPTIONS[3]: 220.0}
        run_day(policy, 0, costs)
        choices = run_day(policy, 1, costs)
        best_share = sum(c == OPTIONS[1] for c in choices) / len(choices)
        assert best_share > 0.5


class TestOrientation:
    def test_flipped_pair_gets_mirrored_transit(self):
        """A transit option learned from A->B calls must come back
        reversed for B->A calls."""
        policy = ViaPolicy(ViaConfig(epsilon=0.0, seed=9))
        fwd_options = [DIRECT, RelayOption.transit(0, 1)]
        rev_options = [DIRECT, RelayOption.transit(1, 0)]
        # Teach the policy that transit is far better, in the fwd direction.
        for day in range(2):
            for i in range(40):
                call = make_call(call_id=day * 100 + i, t_hours=day * 24.0 + 0.3 + i * 0.01,
                                 src_asn=1001, dst_asn=1002)
                option = policy.assign(call, fwd_options)
                cost = 50.0 if option.is_relayed else 300.0
                policy.observe(call, option, metrics(cost))
        call = make_call(call_id=999, t_hours=24.0 + 20.0, src_asn=1002, dst_asn=1001)
        choice = policy.assign(call, rev_options)
        assert choice in rev_options

    def test_country_granularity_pools_pairs(self):
        policy = ViaPolicy(ViaConfig(granularity="country", epsilon=0.0, seed=10))
        # Calls between different AS pairs in the same countries share state.
        c1 = make_call(call_id=1, src_asn=1001, dst_asn=1002)
        c2 = make_call(call_id=2, src_asn=1003, dst_asn=1004)
        policy.assign(c1, OPTIONS)
        policy.observe(c1, DIRECT, metrics(100.0))
        policy.assign(c2, OPTIONS)
        assert len(policy._pair_state) == 1


class TestBudgetIntegration:
    def test_zero_budget_never_relays(self):
        policy = ViaPolicy(ViaConfig(budget=0.0, seed=11))
        costs = {o: 100.0 for o in OPTIONS}
        for day in range(3):
            choices = run_day(policy, day, costs)
            assert all(c is DIRECT for c in choices)

    def test_budget_cap_roughly_respected(self):
        policy = ViaPolicy(ViaConfig(budget=0.3, budget_aware=False, seed=12))
        costs = {DIRECT: 300.0, OPTIONS[1]: 80.0, OPTIONS[2]: 200.0, OPTIONS[3]: 220.0}
        for day in range(4):
            run_day(policy, day, costs, n_calls=100)
        assert policy.relayed_fraction is not None
        assert policy.relayed_fraction <= 0.35

    def test_unbudgeted_policy_reports_none(self):
        assert ViaPolicy(ViaConfig(budget=1.0)).relayed_fraction is None


class TestObserve:
    def test_observe_feeds_history(self):
        policy = ViaPolicy(ViaConfig(seed=13))
        call = make_call()
        policy.observe(call, DIRECT, metrics(123.0))
        stat = policy.history.stats((1001, 1002), DIRECT, 0)
        assert stat is not None and stat.count == 1

    def test_observe_unassigned_pair_is_safe(self):
        policy = ViaPolicy()
        policy.observe(make_call(), RelayOption.bounce(5), metrics(100.0))


class TestCheckpointing:
    def test_save_load_roundtrip(self, tmp_path):
        policy = ViaPolicy(ViaConfig(seed=20))
        costs = {DIRECT: 300.0, OPTIONS[1]: 80.0, OPTIONS[2]: 200.0, OPTIONS[3]: 220.0}
        run_day(policy, 0, costs)
        run_day(policy, 1, costs)
        path = tmp_path / "state.json"
        policy.save_state(path)

        restored = ViaPolicy(ViaConfig(seed=21))
        restored.load_state(path)
        assert restored.history.total_calls() == policy.history.total_calls()
        for window in policy.history.windows():
            for key, stat in policy.history.window_items(window):
                other = restored.history.stats(key[0], key[1], window)
                assert other is not None
                assert other.count == stat.count
                assert other.mean == pytest.approx(stat.mean)
                assert other.sem() == pytest.approx(stat.sem())

    def test_restored_policy_keeps_its_knowledge(self, tmp_path):
        """After a restart, the policy should immediately favour the
        option its predecessor had learned is best."""
        costs = {DIRECT: 300.0, OPTIONS[1]: 60.0, OPTIONS[2]: 250.0, OPTIONS[3]: 260.0}
        original = ViaPolicy(ViaConfig(seed=22, epsilon=0.0))
        run_day(original, 0, costs)
        run_day(original, 1, costs)
        path = tmp_path / "state.json"
        original.save_state(path)

        restored = ViaPolicy(ViaConfig(seed=23, epsilon=0.0))
        restored.load_state(path)
        choices = run_day(restored, 2, costs)
        best_share = sum(c == OPTIONS[1] for c in choices) / len(choices)
        assert best_share > 0.5

    def test_load_rejects_wrong_metric(self, tmp_path):
        policy = ViaPolicy(ViaConfig(metric="rtt_ms"))
        path = tmp_path / "state.json"
        policy.save_state(path)
        other = ViaPolicy(ViaConfig(metric="loss_rate"))
        with pytest.raises(ValueError, match="optimises"):
            other.load_state(path)

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            ViaPolicy(ViaConfig()).load_state(path)
