"""The frozen heap (``repro._heap.long_lived``) and the collector's pauses.

A replay and a serving controller freeze what is alive when they begin,
so collections scan only what they allocate since; neither may change
what a decision reads, and neither may disturb a freeze it does not own.
The controller also counts every collection by generation
(``repro.obs.pauses.GcPauses``).
"""

from __future__ import annotations

import asyncio
import gc

import numpy as np
import pytest

from repro._heap import long_lived
from repro.core import build_policy
from repro.core.policy import ViaConfig, ViaPolicy
from repro.deployment import TestbedClient as AgentClient
from repro.deployment import ViaController
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import RelayOption
from repro.obs.pauses import _ATTACHED, _on_gc
from repro.simulation import replay
from repro.workload import TraceDataset
from repro.verify import controller_fingerprint

OPTIONS = [RelayOption.bounce(0), RelayOption.bounce(1), RelayOption.transit(0, 1)]

# ``gc.get_freeze_count()`` falls when refcounting frees a frozen object,
# so "left alone" reads as "no more than it was, and still frozen": a
# second freeze would add everything allocated since the first.


@pytest.fixture(autouse=True)
def thawed():
    """Every test starts and ends with nothing frozen and no pause hook."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    yield
    assert gc.get_freeze_count() == 0
    assert _on_gc not in gc.callbacks and not _ATTACHED


@pytest.fixture()
def outer_freeze():
    """A caller's own freeze around the test."""
    gc.freeze()
    try:
        yield gc.get_freeze_count()
    finally:
        gc.unfreeze()


class FreezeWatcher(ViaPolicy):
    """VIA that notes the freeze count at every assignment."""

    seen: list[int]

    def assign(self, call, options):
        self.seen.append(gc.get_freeze_count())
        return super().assign(call, options)


def _head(trace, n: int) -> TraceDataset:
    return TraceDataset(calls=trace.calls[:n], n_days=trace.n_days)


def _replay(world, trace, *, batch_calls: int = 1):
    return replay(world, trace, build_policy("via", world, seed=3), seed=5,
                  batch_calls=batch_calls)


class TestLongLived:
    def test_owns_the_freeze_only_when_nothing_is_frozen(self):
        with long_lived():
            frozen = gc.get_freeze_count()
            assert frozen > 0
            with long_lived():  # nested: not the owner, leaves it alone
                assert 0 < gc.get_freeze_count() <= frozen
            assert 0 < gc.get_freeze_count() <= frozen
        assert gc.get_freeze_count() == 0

    def test_leaves_a_disabled_collector_alone(self):
        gc.disable()
        try:
            with long_lived():
                assert gc.get_freeze_count() == 0
        finally:
            gc.enable()

    def test_thaws_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with long_lived():
                raise RuntimeError("boom")
        assert gc.get_freeze_count() == 0

    def test_frozen_cyclic_garbage_is_reclaimed_after_the_exit(self):
        import weakref

        class Node:
            pass

        node = Node()
        node.self = node
        ref = weakref.ref(node)
        with long_lived():
            del node
            gc.collect()
            assert ref() is not None  # frozen: out of the collector's reach
        gc.collect()
        assert ref() is None


class TestReplay:
    def test_replay_freezes_its_loop_and_thaws_on_return(self, small_world, small_trace):
        policy = FreezeWatcher(ViaConfig(seed=3), name="via")
        policy.seen = []
        replay(small_world, _head(small_trace, 200), policy, seed=5)
        assert len(policy.seen) == 200 and min(policy.seen) > 0
        assert gc.get_freeze_count() == 0

    def test_replay_leaves_a_callers_freeze_untouched(self, small_world, small_trace,
                                                      outer_freeze):
        policy = FreezeWatcher(ViaConfig(seed=3), name="via")
        policy.seen = []
        replay(small_world, _head(small_trace, 200), policy, seed=5)
        assert 0 < min(policy.seen) and max(policy.seen) <= outer_freeze
        assert 0 < gc.get_freeze_count() <= outer_freeze

    @pytest.mark.parametrize("batch_calls", [1, 256])
    def test_outcomes_are_equal_under_a_callers_freeze(self, small_world, small_trace,
                                                       batch_calls):
        trace = _head(small_trace, 1500)
        owned = _replay(small_world, trace, batch_calls=batch_calls)
        gc.freeze()
        try:
            outer = _replay(small_world, trace, batch_calls=batch_calls)
        finally:
            gc.unfreeze()
        assert len(owned) == 1500 and owned.outcomes == outer.outcomes


async def _serve_session(controller: ViaController, seed: int) -> None:
    """A seeded wire session: measurements then requests, one client."""
    rng = np.random.default_rng(seed)
    async with AgentClient(0, "US", "127.0.0.1", controller.port) as client:
        for i in range(40):
            dst = int(rng.integers(1, 5))
            option = OPTIONS[int(rng.integers(0, len(OPTIONS)))]
            metrics = PathMetrics(
                rtt_ms=float(rng.uniform(40, 400)),
                loss_rate=float(rng.uniform(0, 0.05)),
                jitter_ms=float(rng.uniform(0, 20)),
            )
            await client.report_measurement(dst, option, metrics, 0.01 * (i + 1))
            await client.request_assignment(dst, OPTIONS, t_hours=0.01 * (i + 1))


class TestController:
    def test_serving_holds_the_freeze_and_stop_thaws(self):
        async def scenario():
            controller = ViaController(ViaConfig(seed=1))
            await controller.start()
            try:
                assert gc.get_freeze_count() > 0
            finally:
                await controller.stop()
            assert gc.get_freeze_count() == 0

        asyncio.run(scenario())

    @pytest.mark.parametrize("first_out", ["first", "second"])
    def test_two_controllers_start_and_stop_in_either_order(self, first_out):
        async def scenario():
            first = ViaController(ViaConfig(seed=1))
            second = ViaController(ViaConfig(seed=2))
            await first.start()
            frozen = gc.get_freeze_count()
            await second.start()
            # The second start froze nothing more: the first owns the freeze.
            assert 0 < gc.get_freeze_count() <= frozen
            one, other = (first, second) if first_out == "first" else (second, first)
            await one.stop()
            if one is first:
                assert gc.get_freeze_count() == 0
            else:
                assert 0 < gc.get_freeze_count() <= frozen
            await other.stop()
            assert gc.get_freeze_count() == 0

        asyncio.run(scenario())

    def test_a_callers_freeze_survives_a_controller(self, outer_freeze):
        async def scenario():
            async with ViaController(ViaConfig(seed=1)):
                assert 0 < gc.get_freeze_count() <= outer_freeze
            assert 0 < gc.get_freeze_count() <= outer_freeze

        asyncio.run(scenario())

    def test_fingerprint_is_unchanged_by_the_freeze(self):
        async def session(outer: bool) -> str:
            controller = ViaController(ViaConfig(seed=7))
            if outer:
                gc.freeze()
            try:
                async with controller:
                    await _serve_session(controller, seed=11)
                    return controller_fingerprint(controller)
            finally:
                if outer:
                    gc.unfreeze()

        owned = asyncio.run(session(outer=False))
        assert owned == asyncio.run(session(outer=True))
        assert '"n_requests": 40' in owned


class TestGcPauses:
    def test_a_forced_collection_shows_under_generation_2(self):
        async def scenario():
            async with ViaController(ViaConfig(seed=1)) as controller:
                before = controller.gc_pauses.by_generation()[2]
                gc.collect()
                after = controller.gc_pauses.by_generation()[2]
                text = controller.metrics_text()
            return before, after, text

        before, after, text = asyncio.run(scenario())
        assert after["collections"] == before["collections"] + 1
        assert after["seconds"] > before["seconds"]
        assert after["max_seconds"] > 0
        assert 'via_gc_collections_total{generation="2"}' in text
        assert 'via_gc_pause_max_seconds{generation="2"}' in text
        assert 'via_gc_slow_pauses_total{generation="2"}' in text

    def test_nothing_is_counted_before_start_or_after_stop(self):
        async def scenario():
            controller = ViaController(ViaConfig(seed=1))
            gc.collect()
            async with controller:
                pass
            gc.collect()
            return controller.gc_pauses.by_generation()[2]["collections"]

        assert asyncio.run(scenario()) == 0

    def test_controllers_sharing_a_registry_count_a_collection_once(self):
        from repro.obs.metrics import MetricsRegistry

        async def scenario():
            registry = MetricsRegistry()
            first = ViaController(ViaConfig(seed=1), registry=registry)
            second = ViaController(ViaConfig(seed=2), registry=registry)
            async with first, second:
                gc.collect()
            return first.gc_pauses.by_generation()[2]["collections"]

        assert asyncio.run(scenario()) == 1
