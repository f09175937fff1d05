"""``World.sample_call`` against its definition, bit for bit.

``tests/sampler_reference.py`` composes a call's sample from the public
pieces; the world computes the same thing from compiled tables.  The
contract is equality of the floats (``==``, never ``approx``) *and* of the
generator's position afterwards: the replay shares one generator between
the sampler, ``QualityModel.maybe_rate`` and the probe/multipath samplers,
so one draw too many or few shifts every later call.
"""

from __future__ import annotations

import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.netmodel import world as world_module
from repro.netmodel.dynamics import PUBLIC_WAN_REGIME, RegimeProcess
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT
from repro.netmodel.segments import NoiseConfig, SegmentModel
from repro.netmodel.topology import TopologyConfig
from repro.netmodel.world import RelayOutage, WorldConfig, build_world
from repro.telephony.quality import QualityModel
from tests.sampler_reference import (
    reference_sample_call,
    reference_sample_path,
    reference_true_mean,
)

N_DAYS = 6
RATER = QualityModel(rating_fraction=0.5)


def _world():
    return build_world(
        WorldConfig(topology=TopologyConfig(n_countries=6, n_relays=5, seed=3), n_days=N_DAYS, seed=4)
    )


@pytest.fixture(scope="module")
def world():
    return _world()


#: One call: pair, option (both by index, wrapped), time, client flags,
#: and whether the replay rates it -- times run past the regime horizon.
CASES = st.lists(
    st.tuples(
        st.integers(0, 10_000),
        st.integers(0, 10_000),
        st.integers(0, 40),
        st.floats(0.0, 24.0 * N_DAYS * 1.5, allow_nan=False),
        st.booleans(),
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 3),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def _seeded_cases(n: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    return [
        (
            int(rng.integers(10_000)), int(rng.integers(10_000)), int(rng.integers(40)),
            float(rng.uniform(0.0, 24.0 * N_DAYS * 1.5)),
            bool(rng.integers(2)), bool(rng.integers(2)),
            int(rng.integers(4)), int(rng.integers(4)), bool(rng.integers(2)),
        )
        for _ in range(n)
    ]


def assert_same_stream(world, cases, seed, wrap=lambda rng: rng) -> None:
    """Drive the world and the reference over ``cases`` on twin generators.

    ``wrap`` stands between the world and its generator (planted bugs)."""
    asns = world.topology.asns
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for a, b, o, t_hours, src_w, dst_w, src_p, dst_p, rated in cases:
        src, dst = asns[a % len(asns)], asns[b % len(asns)]
        options = world.options_for_pair(src, dst)
        option = options[o % len(options)]
        client = dict(src_wireless=src_w, dst_wireless=dst_w, src_prefix=src_p, dst_prefix=dst_p)
        got = world.sample_call(src, dst, option, t_hours, wrap(ours), **client)
        want = reference_sample_call(world, src, dst, option, t_hours, theirs, **client)
        assert got == want, (src, dst, str(option), t_hours, client)
        assert ours.bit_generator.state == theirs.bit_generator.state
        if rated:
            assert RATER.maybe_rate(got, ours) == RATER.maybe_rate(want, theirs)
        day = int(t_hours // 24.0)
        assert world.true_mean(src, dst, option, day) == reference_true_mean(
            world, src, dst, option, day
        )


class TestBitIdentity:
    @given(CASES, st.integers(0, 2**32 - 1))
    def test_sample_call_equals_the_composition(self, world, cases, seed):
        assert_same_stream(world, cases, seed)

    def test_a_long_seeded_stream(self, world):
        assert_same_stream(world, _seeded_cases(1500, seed=8), seed=21)

    def test_sample_path_equals_the_composition(self, world):
        a, b = world.topology.asns[0], world.topology.asns[-1]
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for option in world.options_for_pair(a, b):
            assert world.sample_path(a, b, option, 30.5, ours) == reference_sample_path(
                world, a, b, option, 30.5, theirs
            )
        assert ours.bit_generator.state == theirs.bit_generator.state


class _SwappedDraws:
    """A generator whose noise block has each segment's loss and jitter
    draws exchanged -- what a walk reading them in the wrong order sees."""

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, n):
        z = self._rng.standard_normal(n)
        z[1::3], z[2::3] = z[2::3].copy(), z[1::3].copy()
        return z

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestPlantedBugs:
    """The property is sharp enough to catch the two easy mistakes."""

    def test_swapped_loss_and_jitter_draws_fail_it(self, world):
        with pytest.raises(AssertionError):
            assert_same_stream(world, _seeded_cases(50, seed=8), seed=21, wrap=_SwappedDraws)

    def test_numpy_exp_fails_it(self, world, monkeypatch):
        numpy_math = types.SimpleNamespace(
            exp=lambda x: float(np.exp(x)), expm1=math.expm1
        )
        monkeypatch.setattr(world_module, "math", numpy_math)
        with pytest.raises(AssertionError):
            assert_same_stream(world, _seeded_cases(400, seed=8), seed=21)


class TestTableEdges:
    def test_negative_time_raises_and_draws_nothing(self, world):
        a, b = world.topology.asns[:2]
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        for sample in (world.sample_call, world.sample_path):
            with pytest.raises(ValueError):
                sample(a, b, DIRECT, -0.5, rng)
        with pytest.raises(ValueError):
            world.true_mean(a, b, DIRECT, -1)
        with pytest.raises(ValueError):
            world.direct_segment(a, b).mean_on_day(-1)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_days_past_the_horizon_clamp_to_the_last_day(self, world):
        a, b = world.topology.asns[0], world.topology.asns[-1]
        option = world.options_for_pair(a, b)[-1]
        last, beyond = 24.0 * (N_DAYS - 1) + 7.0, 24.0 * (N_DAYS + 9) + 7.0
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        assert world.sample_call(a, b, option, beyond, rng) == world.sample_call(
            a, b, option, last, twin
        )
        assert world.true_mean(a, b, option, N_DAYS + 9) == world.true_mean(
            a, b, option, N_DAYS - 1
        )

    @pytest.mark.parametrize(
        "noise, draws_per_segment",
        [
            (NoiseConfig(rtt_sigma=0.0, loss_sigma=0.0, jitter_sigma=0.0), 0),
            (NoiseConfig(rtt_sigma=0.2, loss_sigma=0.0, jitter_sigma=0.4), 2),
            (NoiseConfig(rtt_sigma=0.0, loss_sigma=0.6, jitter_sigma=0.0), 1),
        ],
    )
    def test_a_zero_sigma_consumes_no_draw(self, noise, draws_per_segment):
        world = _world()
        world._default_noise = noise  # before any segment is built
        a, b = world.topology.asns[0], world.topology.asns[-1]
        bounce = next(o for o in world.options_for_pair(a, b) if o.is_relayed)
        for option, n_segments in ((DIRECT, 3), (bounce, 4)):
            rng, twin, count = (np.random.default_rng(6) for _ in range(3))
            got = world.sample_call(a, b, option, 50.0, rng)
            assert got == reference_sample_call(world, a, b, option, 50.0, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
            count.standard_normal(draws_per_segment * n_segments)
            assert rng.bit_generator.state == count.bit_generator.state

    def test_a_down_relay_gives_outage_metrics_and_draws_nothing(self):
        world = _world()
        a, b = world.topology.asns[0], world.topology.asns[-1]
        transit = next(o for o in world.options_for_pair(a, b) if o.ingress != o.egress)
        world.add_outage(RelayOutage(transit.egress, 10.0, 20.0))
        cfg = world.config
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        got = world.sample_call(a, b, transit, 12.0, rng, src_wireless=True, src_prefix=2)
        assert got == PathMetrics(cfg.outage_rtt_ms, cfg.outage_loss_rate, cfg.outage_jitter_ms)
        assert rng.bit_generator.state == twin.bit_generator.state
        # Outside the window, and on the direct path inside it, it samples.
        assert world.sample_call(a, b, transit, 20.0, rng) == reference_sample_call(
            world, a, b, transit, 20.0, twin
        )
        assert world.sample_call(a, b, DIRECT, 12.0, rng) == reference_sample_call(
            world, a, b, DIRECT, 12.0, twin
        )

    @pytest.mark.parametrize("amplitude", [-0.1, 1.0, 1.5])
    def test_out_of_range_diurnal_amplitude_is_rejected(self, amplitude):
        with pytest.raises(ValueError):
            SegmentModel(
                name="tilted",
                base=PathMetrics(rtt_ms=50.0, loss_rate=0.01, jitter_ms=2.0),
                regime=RegimeProcess.sample(PUBLIC_WAN_REGIME, 3, np.random.default_rng(0)),
                noise=NoiseConfig(),
                diurnal_amplitude=amplitude,
            )
