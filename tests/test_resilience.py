"""Resilience tests: retries, fallback-to-direct, outages, crash recovery.

Covers the §7 graceful-degradation story end to end: the client-side
retry/breaker machinery, fallback when the controller is unreachable or
silent, reconnect after a controller restart, relay-outage repicking in
the policy and the world model, and controller snapshot/restore.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, strategies as st

from repro.core.policy import ViaConfig, ViaPolicy
from repro.deployment import (
    CircuitBreaker,
    RelayOutage,
    RetryPolicy,
    ViaController,
)
from repro.deployment import TestbedClient as AgentClient
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.netmodel.topology import TopologyConfig
from repro.netmodel.world import WorldConfig, build_world
from repro.telephony.call import Call

pytestmark = pytest.mark.faults


def run(coro):
    return asyncio.run(coro)


OPTIONS = [RelayOption.bounce(0), RelayOption.bounce(1)]

#: Tight budget so unreachable/silent-controller tests finish quickly.
FAST_RETRY = RetryPolicy(
    max_attempts=2,
    request_timeout_s=0.05,
    base_delay_s=0.01,
    max_delay_s=0.02,
    deadline_s=0.5,
)


def make_call(call_id=0, t_hours=1.0) -> Call:
    return Call(
        call_id=call_id, t_hours=t_hours, src_asn=1001, dst_asn=1002,
        src_country="US", dst_country="IN", src_user=0, dst_user=1,
    )


def metrics(rtt: float) -> PathMetrics:
    return PathMetrics(rtt_ms=rtt, loss_rate=0.01, jitter_ms=5.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(request_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=0.5, max_delay_s=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=-1.0)

    def test_no_jitter_schedule_is_exact_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, max_delay_s=0.5,
            backoff_factor=2.0, jitter=0.0,
        )
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.4, 0.5])

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.25, seed=7)
        again = RetryPolicy(max_attempts=4, jitter=0.25, seed=7)
        assert policy.delays() == again.delays()
        for attempt in range(1, policy.max_attempts):
            raw = RetryPolicy(max_attempts=4, jitter=0.0).delay_for(attempt)
            assert raw * 0.75 <= policy.delay_for(attempt) <= raw * 1.25

    def test_different_seed_changes_jitter(self):
        a = RetryPolicy(max_attempts=4, seed=1).delays()
        b = RetryPolicy(max_attempts=4, seed=2).delays()
        assert a != b

    def test_full_jitter_is_deterministic_and_spans_zero_to_raw(self):
        policy = RetryPolicy(max_attempts=6, jitter=0.5, jitter_mode="full", seed=7)
        again = RetryPolicy(max_attempts=6, jitter=0.5, jitter_mode="full", seed=7)
        assert policy.delays() == again.delays()
        for attempt in range(1, policy.max_attempts):
            raw = RetryPolicy(max_attempts=6, jitter=0.0).delay_for(attempt)
            # AWS full jitter: uniform over [0, raw) -- below the raw
            # delay, possibly near zero (decorrelating the herd).
            assert 0.0 <= policy.delay_for(attempt) < raw

    def test_full_jitter_zero_jitter_disables(self):
        exact = RetryPolicy(
            max_attempts=4, base_delay_s=0.1, max_delay_s=0.4,
            backoff_factor=2.0, jitter=0.0, jitter_mode="full",
        )
        assert exact.delays() == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_mode_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter_mode="thundering-herd")

    def test_delay_for_rejects_bad_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(0)


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(threshold, reset, clock=lambda: clock["t"])
        return breaker, clock

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=0.0)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _clock = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.n_opens == 1 and breaker.n_rejections == 1

    def test_success_resets_failure_streak(self):
        breaker, _clock = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_after_cooldown(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock["t"] = 10.0
        assert breaker.allow()  # the single trial call
        assert breaker.state == "half-open"
        assert not breaker.allow()  # concurrent callers still fail fast

    def test_half_open_success_closes(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.n_opens == 2


class TestClientFallback:
    def test_unreachable_controller_falls_back_to_direct(self):
        async def scenario():
            # Grab a port nobody is listening on.
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            client = AgentClient(0, "US", "127.0.0.1", port, retry=FAST_RETRY)
            choice = await client.request_assignment(
                1, [DIRECT, *OPTIONS], t_hours=0.1
            )
            assert choice is DIRECT
            assert client.stats.n_fallbacks == 1
            await client.close()

        run(scenario())

    def test_silent_controller_times_out_then_falls_back(self):
        async def scenario():
            async def never_reply(reader, writer):
                while await reader.readline():
                    pass  # accept everything, answer nothing

            server = await asyncio.start_server(never_reply, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AgentClient(
                    0, "US", "127.0.0.1", port, retry=FAST_RETRY
                ) as client:
                    choice = await client.request_assignment(1, OPTIONS, t_hours=0.1)
                    # No direct path offered: fall back to the first candidate.
                    assert choice == OPTIONS[0]
                    assert client.stats.n_timeouts >= 1
                    assert client.stats.n_retries >= 1
                    assert client.stats.n_fallbacks == 1
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_open_breaker_fails_fast_to_fallback(self):
        async def scenario():
            breaker = CircuitBreaker(failure_threshold=1, reset_after_s=60.0)
            breaker.record_failure()  # pre-open: controller known dead
            client = AgentClient(
                0, "US", "127.0.0.1", 1, retry=FAST_RETRY, breaker=breaker
            )
            choice = await client.request_assignment(
                1, [DIRECT, *OPTIONS], t_hours=0.1
            )
            assert choice is DIRECT
            assert client.stats.n_breaker_fastfails == 1
            assert client.stats.n_timeouts == 0  # never even tried

        run(scenario())

    def test_default_option_prefers_direct(self):
        assert AgentClient.default_option([DIRECT, *OPTIONS]) is DIRECT
        assert AgentClient.default_option(OPTIONS) == OPTIONS[0]
        with pytest.raises(ValueError):
            AgentClient.default_option([])


class TestReconnect:
    def test_client_survives_controller_restart(self):
        async def scenario():
            controller = ViaController(ViaConfig(seed=1))
            await controller.start()
            port = controller.port
            client = AgentClient(
                0, "US", "127.0.0.1", port, retry=RetryPolicy(
                    max_attempts=4, request_timeout_s=0.25,
                    base_delay_s=0.05, max_delay_s=0.1, deadline_s=5.0,
                )
            )
            await client.connect()
            assert await client.request_assignment(1, OPTIONS, 0.1) in OPTIONS

            # Crash the controller; in-budget requests degrade to fallback.
            await controller.stop()
            choice = await client.request_assignment(1, OPTIONS, 0.2)
            assert choice == OPTIONS[0]
            assert client.stats.n_fallbacks == 1

            # A new controller process binds the same port; the client's
            # next request reconnects transparently and is served again.
            revived = ViaController(ViaConfig(seed=1), port=port)
            await revived.start()
            try:
                assert await client.request_assignment(1, OPTIONS, 0.3) in OPTIONS
                assert client.stats.n_reconnects >= 1
                assert revived.n_requests == 1
            finally:
                await client.close()
                await revived.stop()

        run(scenario())

    def test_measurement_retries_over_fresh_connection(self):
        async def scenario():
            async with ViaController() as controller:
                client = AgentClient(
                    0, "US", "127.0.0.1", controller.port, retry=FAST_RETRY
                )
                await client.connect()
                # Sever the transport behind the client's back.
                client._writer.close()
                client._writer = None
                client._reader = None
                await client.report_measurement(1, OPTIONS[0], metrics(100.0), 0.1)
                # Fence the fire-and-forget send with a round-trip.
                await client.request_assignment(1, OPTIONS, 0.2)
                assert controller.n_measurements == 1
                assert client.stats.n_reconnects >= 1
                assert client.stats.n_dropped_measurements == 0
                await client.close()

        run(scenario())


class TestPolicyOutageRepick:
    def warmed_policy(self) -> ViaPolicy:
        policy = ViaPolicy(
            ViaConfig(seed=3, epsilon=0.0, min_direct_samples=2, use_tomography=False)
        )
        for i in range(8):
            call = make_call(call_id=i, t_hours=0.2 + 0.01 * i)
            policy.observe(call, OPTIONS[0], metrics(50.0))
            policy.observe(call, OPTIONS[1], metrics(300.0))
        return policy

    def test_assign_avoids_down_relay(self):
        policy = self.warmed_policy()
        call = make_call(call_id=100, t_hours=24.1)
        assert policy.assign(call, OPTIONS) == OPTIONS[0]  # best when healthy

        policy.set_down_relays({0})
        assert policy.down_relays == frozenset({0})
        choice = policy.assign(make_call(call_id=101, t_hours=24.2), OPTIONS)
        assert choice == OPTIONS[1]
        assert policy.n_outage_repicks >= 1

    def test_recovery_restores_best_choice(self):
        policy = self.warmed_policy()
        policy.set_down_relays({0})
        policy.assign(make_call(call_id=100, t_hours=24.1), OPTIONS)
        policy.set_down_relays(())
        assert policy.down_relays == frozenset()
        choice = policy.assign(make_call(call_id=101, t_hours=24.2), OPTIONS)
        assert choice == OPTIONS[0]

    def test_all_options_down_returns_original_choice(self):
        policy = self.warmed_policy()
        policy.set_down_relays({0, 1})
        choice = policy.assign(make_call(call_id=100, t_hours=24.1), OPTIONS)
        assert choice in OPTIONS  # nothing alive: degrade, don't crash

    @given(
        st.lists(st.sets(st.integers(1, 16), max_size=14), min_size=1, max_size=4),
        st.floats(0.05, 0.5),
        st.sampled_from([1.0, 0.6, 0.3]),
        st.integers(0, 2**16),
    )
    def test_outages_outrank_the_load_cap_and_the_budget(self, down_sets, cap, budget, seed):
        """An assigned option rides a down relay only when every offered
        option does, whatever the load cap and budget say."""
        assert dead_assignments(ViaPolicy, down_sets, cap, budget, seed) == []

    def test_a_cap_diversion_onto_a_down_relay_fails_it(self):
        down_sets = [{1, 2, 3, 4, 5, 6, 7, 8}, {2, 4, 6, 8, 10, 12, 14, 16}]
        assert dead_assignments(_DivertIgnoringOutages, down_sets, 0.08, 1.0, seed=3)


class _DivertIgnoringOutages(ViaPolicy):
    """The load-cap diversion that walks top-k without looking at outages."""

    def _divert_overloaded(self, state, norm_options, choice):
        for candidate in state.topk:
            if candidate == choice:
                continue
            if not candidate.is_relayed or not self._load_tracker.would_exceed(candidate):
                return candidate
        return self._fallback(state.options)


def dead_assignments(policy_type, down_sets, cap, budget, seed) -> list[tuple]:
    """Assign and observe a three-day stream (NAT-blocked calls included),
    moving through ``down_sets`` in equal spans; return every call placed
    on a down relay while some offered option was up."""
    from tests.vector_stream import inter_relay, make_stream

    calls, menus, rows = make_stream(
        n_calls=360, seed=seed, frac_direct_blocked=0.3, t_span_hours=36.0
    )
    policy = policy_type(
        ViaConfig(seed=seed, budget=budget, per_relay_cap=cap, per_relay_window=100),
        inter_relay=inter_relay,
    )
    span = -(-len(calls) // len(down_sets))
    dead = []
    for i, (call, menu, row) in enumerate(zip(calls, menus, rows)):
        down = down_sets[i // span]
        policy.set_down_relays(down)
        choice = policy.assign(call, menu)

        def is_down(option):
            return any(r in down for r in option.relay_ids())

        if is_down(choice) and not all(map(is_down, menu)):
            dead.append((i, str(choice), sorted(down)))
        policy.observe(call, choice, row)
    return dead


class TestWorldOutages:
    @pytest.fixture(scope="class")
    def outage_world(self):
        world = build_world(
            WorldConfig(
                topology=TopologyConfig(n_countries=6, n_relays=4, seed=5),
                n_days=2,
                seed=5,
            )
        )
        world.add_outage(RelayOutage(relay_id=0, start_hours=6.0, end_hours=12.0))
        return world

    @pytest.fixture(scope="class")
    def pair(self, outage_world):
        asns = outage_world.topology.asns
        a = asns[0]
        b = next(x for x in asns if outage_world.topology.is_international(a, x))
        return a, b

    def test_add_outage_validates_relay_id(self, outage_world):
        with pytest.raises(ValueError):
            outage_world.add_outage(RelayOutage(relay_id=99, start_hours=0.0, end_hours=1.0))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            RelayOutage(relay_id=0, start_hours=5.0, end_hours=5.0)

    def test_relays_down_at_window_semantics(self, outage_world):
        assert outage_world.relays_down_at(5.9) == frozenset()
        assert outage_world.relays_down_at(6.0) == frozenset({0})
        assert outage_world.relays_down_at(11.99) == frozenset({0})
        assert outage_world.relays_down_at(12.0) == frozenset()

    def test_option_availability(self, outage_world):
        dead = RelayOption.bounce(0)
        assert not outage_world.option_available(dead, 8.0)
        assert outage_world.option_available(dead, 13.0)
        assert outage_world.option_available(DIRECT, 8.0)  # direct never dies
        assert not outage_world.option_available(RelayOption.transit(0, 1), 8.0)
        assert outage_world.option_available(RelayOption.bounce(1), 8.0)

    def test_sample_call_through_dead_relay_blackholes(self, outage_world, pair, rng):
        a, b = pair
        sample = outage_world.sample_call(a, b, RelayOption.bounce(0), 8.0, rng)
        cfg = outage_world.config
        assert sample.rtt_ms == cfg.outage_rtt_ms
        assert sample.loss_rate == cfg.outage_loss_rate
        healthy = outage_world.sample_call(a, b, RelayOption.bounce(0), 13.0, rng)
        assert healthy.rtt_ms < cfg.outage_rtt_ms

    def test_live_options_exclude_dead_relays(self, outage_world, pair):
        a, b = pair
        all_options = outage_world.options_for_pair(a, b)
        live = outage_world.live_options_for_pair(a, b, 8.0)
        assert set(live) <= set(all_options)
        assert all(outage_world.option_available(o, 8.0) for o in live)
        assert len(live) < len(all_options)  # relay 0 options are gone

    def test_clear_outages(self):
        world = build_world(
            WorldConfig(
                topology=TopologyConfig(n_countries=4, n_relays=3, seed=2),
                n_days=1,
                seed=2,
            )
        )
        world.add_outage(RelayOutage(relay_id=1, start_hours=0.0, end_hours=24.0))
        assert world.outages
        world.clear_outages()
        assert world.relays_down_at(1.0) == frozenset()


class TestReplayWithOutage:
    def test_replay_reports_outage_degradation(self, small_trace):
        from repro.core.baselines import make_via
        from repro.simulation import replay
        from repro.workload.trace import TraceDataset

        world = build_world(
            WorldConfig(
                topology=TopologyConfig(n_countries=8, n_relays=6, seed=11),
                n_days=8,
                seed=13,
            )
        )
        # Day 1, hours 26-34: relays 0 and 1 go dark.
        world.add_outage(RelayOutage(relay_id=0, start_hours=26.0, end_hours=34.0))
        world.add_outage(RelayOutage(relay_id=1, start_hours=26.0, end_hours=34.0))
        trace = TraceDataset(calls=small_trace.calls[:1200], n_days=small_trace.n_days)
        policy = make_via(seed=4)

        result = replay(world, trace, policy, seed=4)
        assert len(result.outage_flags) == len(trace)
        assert 0 < result.n_outage_calls < len(trace)
        degradation = result.outage_degradation("rtt_ms")
        assert degradation is not None
        assert set(degradation) == {"during", "outside", "ratio"}
        assert degradation["ratio"] > 0.0
        # The policy's down-relay set was synced from the schedule and the
        # trace ends after the window, so it finishes clear.
        assert policy.down_relays == frozenset()

    def test_no_outages_means_no_flags(self, small_world, small_trace):
        from repro.core.baselines import DefaultPolicy
        from repro.simulation import replay
        from repro.workload.trace import TraceDataset

        trace = TraceDataset(calls=small_trace.calls[:200], n_days=small_trace.n_days)
        result = replay(small_world, trace, DefaultPolicy(), seed=1)
        assert result.outage_flags == []
        assert result.n_outage_calls == 0
        assert result.outage_degradation("rtt_ms") is None


class TestPolicyCheckpoint:
    def warmed_policy(self) -> ViaPolicy:
        policy = ViaPolicy(
            ViaConfig(seed=9, epsilon=0.0, min_direct_samples=2, use_tomography=False)
        )
        for i in range(10):
            call = make_call(call_id=i, t_hours=0.2 + 0.01 * i)
            policy.observe(call, OPTIONS[0], metrics(60.0 + i))
            policy.observe(call, OPTIONS[1], metrics(250.0 + i))
        # Cross the refresh boundary so per-pair bandit state exists.
        policy.assign(make_call(call_id=50, t_hours=24.1), OPTIONS)
        return policy

    def test_v2_roundtrip_is_lossless(self):
        original = self.warmed_policy()
        payload = original.state_dict()
        assert payload["format"] == "via-policy-state-v2"

        restored = ViaPolicy(
            ViaConfig(seed=9, epsilon=0.0, min_direct_samples=2, use_tomography=False)
        )
        restored.load_state_dict(payload)
        assert restored.state_dict() == payload
        assert restored.n_refreshes == original.n_refreshes

    def test_restored_policy_assigns_identically(self):
        original = self.warmed_policy()
        restored = ViaPolicy(
            ViaConfig(seed=9, epsilon=0.0, min_direct_samples=2, use_tomography=False)
        )
        restored.load_state_dict(original.state_dict())
        for i in range(6):
            call = make_call(call_id=200 + i, t_hours=24.2 + 0.01 * i)
            assert restored.assign(call, OPTIONS) == original.assign(call, OPTIONS)

    def test_save_load_file_roundtrip(self, tmp_path):
        original = self.warmed_policy()
        path = tmp_path / "policy.json"
        original.save_state(path)
        restored = ViaPolicy(
            ViaConfig(seed=9, epsilon=0.0, min_direct_samples=2, use_tomography=False)
        )
        restored.load_state(path)
        assert restored.state_dict() == original.state_dict()


class TestControllerSnapshot:
    def test_crash_restart_restores_learned_state(self, tmp_path):
        store_dir = tmp_path / "store"
        config = ViaConfig(seed=2, epsilon=0.0, min_direct_samples=2,
                           use_tomography=False)
        good, bad = metrics(60.0), metrics(400.0)

        async def scenario():
            # --- Life before the crash: learn, then checkpoint. ---
            async with ViaController(config, store=store_dir) as controller:
                async with AgentClient(
                    0, "US", "127.0.0.1", controller.port
                ) as client:
                    for i in range(6):
                        await client.report_measurement(1, OPTIONS[0], good, 0.1 * i)
                        await client.report_measurement(1, OPTIONS[1], bad, 0.1 * i)
                    pre_crash = await client.request_assignment(1, OPTIONS, 24.1)
                pre_measurements = controller.n_measurements
                controller.save_store_snapshot()

            # --- Restart: a fresh controller recovers from the store. ---
            async with ViaController(config, store=store_dir) as revived:
                assert revived.n_measurements == pre_measurements
                stat = revived.policy.history.stats((0, 1), OPTIONS[0], 0)
                assert stat is not None and stat.count == 6
                async with AgentClient(
                    0, "US", "127.0.0.1", revived.port
                ) as client:
                    post_crash = await client.request_assignment(1, OPTIONS, 24.2)
            assert post_crash == pre_crash == OPTIONS[0]

        run(scenario())

    def test_corrupt_snapshot_does_not_prevent_start(self, tmp_path):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "snapshot.json").write_text("{not json", encoding="utf-8")

        async def scenario():
            # A crash mid-write must not brick the restart: the controller
            # logs and starts fresh instead of raising.
            async with ViaController(store=store_dir) as controller:
                assert controller.n_measurements == 0
                async with AgentClient(0, "US", "127.0.0.1", controller.port) as client:
                    assert await client.request_assignment(1, OPTIONS, 0.1) in OPTIONS

        run(scenario())

    def test_snapshot_requires_path(self):
        # No store, no place to write: an explicit error, not a no-op.
        controller = ViaController()
        with pytest.raises(ValueError):
            controller.save_store_snapshot()

    def test_unrecognised_snapshot_format_rejected(self):
        controller = ViaController()
        with pytest.raises(ValueError):
            controller.restore_dict({"format": "not-a-snapshot"})
