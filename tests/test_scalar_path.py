"""The scalar decision path against its array-form definition, bit for bit.

``ViaPolicy._assign``/``_observe`` (every budgeted, load-capped or outage
call, every wire request, every replayed WAL record) computes four things
on floats and caches that ``tests/scalar_reference.py`` writes out the
obvious way: the Welford push, the budget gate's percentile, the
tomography stitch and a call's normalised menu.  Each is pinned ``==``
against its reference under generated inputs (never ``approx``), and each
check is shown to fail on a planted bug.  ``RelayOption``'s cached hash
and reversed twin are pinned to the plain-tuple hash and to object
identity, including across processes with different string-hash seeds.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
import textwrap
from bisect import bisect_left
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import budget as budget_module
from repro.core.budget import BudgetGate
from repro.core.history import RunningStat
from repro.core.keys import PairKeyer
from repro.core.policy import ViaConfig, ViaPolicy
from repro.core.tomography import TomographyModel
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, OptionKind, RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.telephony.call import Call
from tests.scalar_reference import (
    reference_normalize,
    reference_push,
    reference_stitch,
    reference_threshold,
)
from tests.vector_stream import inter_relay, make_stream, options as menu_options

pytestmark = pytest.mark.vector

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# RelayOption: the hash, the twin, pickling
# ---------------------------------------------------------------------------

_relay = st.integers(0, 40)
_options = st.one_of(
    st.just(DIRECT),
    _relay.map(RelayOption.bounce),
    st.tuples(_relay, _relay)
    .filter(lambda p: p[0] != p[1])
    .map(lambda p: RelayOption.transit(*p)),
)


def _fields(option) -> tuple:
    return (option.kind, option.ingress, option.egress)


class _ValueHashed:
    """An option with a different, plausible hash (the kind's value
    instead of the kind) -- what a hand-rolled cache might compute."""

    def __init__(self, option: RelayOption) -> None:
        self.kind, self.ingress, self.egress = _fields(option)

    def __hash__(self) -> int:
        return hash((self.kind.value, self.ingress, self.egress))

    def __eq__(self, other) -> bool:
        return _fields(self) == _fields(other)


def assert_iterates_like_tuples(options) -> None:
    """A set of options iterates in the order a set of their field tuples
    does, when both are filled in the same order."""
    assert [_fields(o) for o in set(options)] == list(set(map(_fields, options)))


class TestRelayOption:
    @given(_options)
    def test_hash_is_the_field_tuple_hash(self, option):
        assert hash(option) == hash(_fields(option))
        rebuilt = RelayOption(*_fields(option))
        assert rebuilt == option and hash(rebuilt) == hash(option)

    @given(_options)
    def test_the_twin_is_built_once(self, option):
        twin = option.reversed()
        assert twin.reversed() is option
        assert option.reversed() is twin
        if option.kind is OptionKind.TRANSIT:
            assert _fields(twin) == (OptionKind.TRANSIT, option.egress, option.ingress)
        else:
            assert twin is option

    @given(_options)
    def test_relay_ids_are_the_path_order_ids(self, option):
        expected = {
            OptionKind.DIRECT: (),
            OptionKind.BOUNCE: (option.ingress,),
            OptionKind.TRANSIT: (option.ingress, option.egress),
        }[option.kind]
        assert option.relay_ids() == expected
        assert option.relay_ids() is option.relay_ids()

    @given(st.lists(_options, max_size=60))
    def test_sets_iterate_as_for_tuples(self, options):
        assert_iterates_like_tuples(options)

    def test_equality_is_by_value(self):
        a, b = RelayOption.transit(3, 4), RelayOption.transit(3, 4)
        assert a is not b and a == b and not (a != b)
        assert a != RelayOption.transit(4, 3) and a != RelayOption.bounce(3)
        assert a != (OptionKind.TRANSIT, 3, 4)

    def test_pickle_and_copy_rebuild_from_fields(self):
        import copy

        option = RelayOption.transit(5, 9)
        option.reversed()
        for clone in (pickle.loads(pickle.dumps(option)), copy.deepcopy(option)):
            assert clone == option and hash(clone) == hash(option)
            assert clone.reversed().reversed() is clone


class TestRelayOptionPlantedBugs:
    def test_a_different_hash_iterates_differently(self):
        options = [RelayOption.bounce(i) for i in range(30)]
        options += [RelayOption.transit(i, i + 1) for i in range(30)]
        with pytest.raises(AssertionError):
            assert_iterates_like_tuples([_ValueHashed(o) for o in options])


# The pickle is written by one interpreter and read by another; each
# prints what the other needs.  ``naive`` pickles the slots as they are
# (cached hash included) instead of rebuilding from the fields.
_DUMP = """
import copyreg, pickle, sys
from repro.netmodel.options import RelayOption
import tests.test_scalar_path as t
if sys.argv[1] == "naive":
    copyreg.pickle(RelayOption, t.naive_reduce)
menu = [RelayOption.bounce(1), RelayOption.transit(1, 2), RelayOption.transit(2, 1)]
sys.stdout.write(pickle.dumps(menu).hex())
"""

_LOAD = """
import pickle, sys
from repro.netmodel.options import RelayOption
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
local = [RelayOption.bounce(1), RelayOption.transit(1, 2), RelayOption.transit(2, 1)]
table = {option: i for i, option in enumerate(local)}
ok = all(
    hash(got) == hash(want) and table.get(got) == i
    for i, (got, want) in enumerate(zip(loaded, local))
)
print("ok" if ok else "miss")
"""


def naive_reduce(option):
    """Pickle an option with its cached hash, as a slot copy would."""
    return (naive_rebuild, (option.kind, option.ingress, option.egress, hash(option)))


def naive_rebuild(kind, ingress, egress, cached_hash):
    option = RelayOption(kind, ingress, egress)
    object.__setattr__(option, "_hash", cached_hash)
    return option


def _across_hash_seeds(mode: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])

    def run(code: str, seed: str, *args: str, stdin: str | None = None) -> str:
        result = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code), *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**env, "PYTHONHASHSEED": seed},
            check=True,
        )
        return result.stdout.strip()

    return run(_LOAD, "2", stdin=run(_DUMP, "1", mode))


class TestAcrossProcesses:
    """Options cross process boundaries (``run_grid`` workers, checkpoint
    files); the kind hashes by name, so a hash cached under one
    ``PYTHONHASHSEED`` is wrong under another."""

    def test_pickled_options_hash_like_local_ones(self):
        assert _across_hash_seeds("fields") == "ok"

    def test_a_pickled_cached_hash_misses(self):
        assert _across_hash_seeds("naive") == "miss"

    def test_a_spawned_grid_replays_the_serial_digests(self, monkeypatch):
        """``run_grid`` under ``spawn``, the start method where the world
        (and every option in its menus) is pickled into each worker."""
        import multiprocessing
        import types

        from repro.netmodel import TopologyConfig, WorldConfig, build_world
        from repro.simulation import parallel
        from repro.simulation.parallel import PolicySpec, ReplayTask, run_grid
        from repro.workload import WorkloadConfig, generate_trace

        world = build_world(
            WorldConfig(topology=TopologyConfig(n_countries=5, n_relays=4, seed=3), n_days=3, seed=5)
        )
        trace = generate_trace(
            world.topology, WorkloadConfig(n_calls=400, n_pairs=30, seed=7), n_days=3
        )
        tasks = [
            ReplayTask(PolicySpec.via(), seed=11),
            ReplayTask(PolicySpec.via(budget=0.3, per_relay_cap=0.2), seed=12),
        ]

        def digests(results):
            return [
                [(o.call.call_id, str(o.option), o.metrics) for o in r.result.outcomes]
                for r in results
            ]

        serial = digests(run_grid(tasks, world=world, trace=trace, workers=1))
        spawn_only = types.SimpleNamespace(
            get_all_start_methods=lambda: ["spawn"],
            get_context=lambda _method: multiprocessing.get_context("spawn"),
        )
        monkeypatch.setattr(parallel, "multiprocessing", spawn_only)
        assert digests(run_grid(tasks, world=world, trace=trace, workers=2)) == serial


# ---------------------------------------------------------------------------
# RunningStat.push
# ---------------------------------------------------------------------------

_rtt = st.floats(0.0, 5000.0, allow_nan=False, allow_infinity=False)
_loss = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
_jitter = st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)
_triples = st.lists(st.tuples(_rtt, _loss, _jitter), min_size=1, max_size=40)


def _seeded_triples(n: int, seed: int) -> list[tuple[float, float, float]]:
    rng = np.random.default_rng(seed)
    return [
        (float(rng.uniform(1.0, 900.0)), float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.0, 60.0)))
        for _ in range(n)
    ]


def assert_push_matches(triples, stat_type=RunningStat) -> None:
    ours, theirs = stat_type(), RunningStat()
    for row in triples:
        metrics = PathMetrics(*row)
        ours.push(metrics)
        reference_push(theirs, metrics)
        assert ours.count == theirs.count
        assert ours._mean.tobytes() == theirs._mean.tobytes()
        assert ours._m2.tobytes() == theirs._m2.tobytes()


class _ReciprocalPush(RunningStat):
    """Welford with the mean step written as a multiply by 1/n."""

    def push(self, metrics):
        self.count += 1
        for i, value in enumerate((metrics.rtt_ms, metrics.loss_rate, metrics.jitter_ms)):
            delta = value - self._mean[i]
            self._mean[i] += delta * (1.0 / self.count)
            self._m2[i] += delta * (value - self._mean[i])


class TestWelfordPush:
    @given(_triples)
    def test_push_equals_the_numpy_scalar_fold(self, triples):
        assert_push_matches(triples)

    def test_a_long_seeded_stream(self):
        assert_push_matches(_seeded_triples(3000, seed=4))

    def test_planted_reciprocal_step_fails_it(self):
        with pytest.raises(AssertionError):
            assert_push_matches(_seeded_triples(300, seed=4), stat_type=_ReciprocalPush)


# ---------------------------------------------------------------------------
# BudgetGate.threshold
# ---------------------------------------------------------------------------

_benefit = st.one_of(
    st.floats(-200.0, 200.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.5, math.inf, -math.inf, math.nan]),
    st.none(),
)


def _seeded_benefits(n: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(x) for x in np.round(rng.normal(5.0, 20.0, size=n), 3)]


def _same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def assert_threshold_matches(benefits, budget: float, memory: int) -> None:
    """Refresh every record (``min_history=2``) and compare each threshold
    with ``np.quantile`` over the same window, evictions included."""
    gate = BudgetGate(budget, benefit_memory=memory, min_history=2)
    window: deque[float] = deque(maxlen=memory)
    for benefit in benefits:
        gate.record(benefit, relayed=False)
        if benefit is not None:
            window.append(benefit)
        if len(window) >= 2:
            got, want = gate.threshold(), reference_threshold(window, budget)
            assert _same(got, want), (got, want, list(window))


class TestBudgetThreshold:
    @given(
        st.lists(_benefit, max_size=80),
        st.floats(0.0, 0.99, allow_nan=False),
        st.integers(2, 30),
    )
    def test_threshold_equals_np_quantile(self, benefits, budget, memory):
        assert_threshold_matches(benefits, budget, memory)

    @pytest.mark.parametrize("budget", [0.0, 0.1, 0.3, 0.55, 0.9])
    def test_a_long_window_with_eviction(self, budget):
        benefits = _seeded_benefits(1200, seed=9)
        benefits[100:900:37] = [math.nan] * len(benefits[100:900:37])
        benefits[50:1100:53] = [math.inf] * len(benefits[50:1100:53])
        assert_threshold_matches(benefits, budget, memory=250)

    def test_the_refresh_schedule_is_every_half_min_history(self):
        """Default gate: the threshold is recomputed after every 25th
        benefit, once 50 are held, and is stale in between."""
        gate = BudgetGate(0.3)
        window: deque[float] = deque(maxlen=5000)
        expected, stale, since = 0.0, True, 0
        for benefit in _seeded_benefits(400, seed=2):
            gate.record(benefit, relayed=False)
            window.append(benefit)
            since += 1
            if since >= 25:
                stale, since = True, 0
            if len(window) >= 50 and stale:
                expected, stale = reference_threshold(window, 0.3), False
            assert gate.threshold() == (expected if len(window) >= 50 else 0.0)

    def test_planted_lerp_without_the_upper_branch_fails_it(self, monkeypatch):
        def lower_only(ordered, q):
            n = len(ordered)
            virtual = (n - 1) * q
            below = min(math.floor(virtual), n - 1)
            above = min(below + 1, n - 1)
            a, b = ordered[below], ordered[above]
            return a + (b - a) * (virtual - below)

        monkeypatch.setattr(budget_module, "linear_quantile", lower_only)
        with pytest.raises(AssertionError):
            assert_threshold_matches(_seeded_benefits(600, seed=9), 0.3, memory=200)

    def test_planted_evicted_nan_that_lingers_fails_it(self, monkeypatch):
        def forget_finite_only(self, benefit):
            if benefit == benefit:
                del self._sorted[bisect_left(self._sorted, benefit)]

        monkeypatch.setattr(BudgetGate, "_forget", forget_finite_only)
        benefits = _seeded_benefits(60, seed=9)
        benefits[3] = math.nan
        with pytest.raises(AssertionError):
            assert_threshold_matches(benefits, 0.3, memory=20)


# ---------------------------------------------------------------------------
# TomographyModel.predict
# ---------------------------------------------------------------------------

_SIDES = (101, 102, 103)
_RELAYS = (0, 1, 2, 3)
_segment = st.tuples(
    st.floats(0.5, 400.0), st.floats(0.0, 0.4), st.floats(0.02, 40.0)
)
_sem = st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 0.05), st.floats(0.0, 8.0))
_segments = st.dictionaries(
    st.tuples(st.sampled_from(_SIDES), st.sampled_from(_RELAYS)),
    st.tuples(_segment, _sem),
    max_size=len(_SIDES) * len(_RELAYS),
)


def _model(segments, model_type=TomographyModel) -> TomographyModel:
    estimates = {k: np.array(seg) for k, (seg, _) in segments.items()}
    sems = {k: np.array(sem) for k, (_, sem) in segments.items()}
    return model_type(estimates, sems, inter_relay)


def _seeded_segments(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        (side, relay): (
            (float(rng.uniform(0.5, 300.0)), float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.02, 30.0))),
            (float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.0, 0.03)), float(rng.uniform(0.0, 5.0))),
        )
        for side in _SIDES
        for relay in _RELAYS
    }


_ALL_OPTIONS = [DIRECT] + [RelayOption.bounce(r) for r in _RELAYS] + [
    RelayOption.transit(a, b) for a in _RELAYS for b in _RELAYS if a != b
]


def assert_stitch_matches(model) -> None:
    for side_s in _SIDES:
        for side_d in _SIDES:
            for option in _ALL_OPTIONS:
                got = model.predict(side_s, side_d, option)
                want = reference_stitch(model, side_s, side_d, option)
                if want is None:
                    assert got is None
                    continue
                assert got is not None, (side_s, side_d, str(option))
                assert got[0].tobytes() == want[0].tobytes(), (side_s, side_d, str(option))
                assert got[1].tobytes() == want[1].tobytes(), (side_s, side_d, str(option))


class _HypotStitch(TomographyModel):
    """Stitching with the SEM combined by ``hypot`` (no intermediate
    squares: more accurate, and different bits)."""

    def predict(self, side_s, side_d, option):
        result = super().predict(side_s, side_d, option)
        if result is None:
            return None
        ingress = option.ingress
        egress = ingress if option.kind is OptionKind.BOUNCE else option.egress
        sem = np.hypot(self._sems[(side_s, ingress)], self._sems[(side_d, egress)])
        return result[0], sem


class TestStitch:
    @given(_segments)
    def test_predict_equals_the_array_stitch(self, segments):
        assert_stitch_matches(_model(segments))

    def test_a_fitted_model(self, small_world, small_trace):
        """A model fitted from replayed history, through the policy's own
        refresh, stitches the same bits."""
        from repro.core import build_policy
        from repro.simulation import replay

        policy = build_policy("via", small_world, seed=3)
        replay(small_world, small_trace, policy, seed=4, batch_calls=64)
        model = policy._predictor._tomography
        assert model is not None and model.n_segments > 0
        sides = sorted({side for side, _ in model._estimates})
        relays = sorted({relay for _, relay in model._estimates})
        options = [RelayOption.bounce(r) for r in relays] + [
            RelayOption.transit(a, b) for a in relays for b in relays if a != b
        ]
        for side_s in sides[:12]:
            for side_d in sides[:12]:
                for option in options:
                    got = model.predict(side_s, side_d, option)
                    want = reference_stitch(model, side_s, side_d, option)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got[0].tobytes() == want[0].tobytes()
                        assert got[1].tobytes() == want[1].tobytes()

    def test_a_seeded_model(self):
        assert_stitch_matches(_model(_seeded_segments(6)))

    def test_planted_hypot_sem_fails_it(self):
        with pytest.raises(AssertionError):
            assert_stitch_matches(_model(_seeded_segments(6), model_type=_HypotStitch))


# ---------------------------------------------------------------------------
# A pair's menu, normalised once per orientation
# ---------------------------------------------------------------------------

_MENU = menu_options(n_bounce=4)
_OTHER_MENU = [DIRECT, RelayOption.bounce(2), RelayOption.transit(2, 3)]

#: One step: which side calls (orientation), which menu it offers (the
#: shared list, a copy of it, a different list, or the shared list after
#: the caller rotated it in place), and whether direct is blocked.
_steps = st.lists(
    st.tuples(st.booleans(), st.sampled_from(["shared", "copy", "other", "rotated"]), st.booleans()),
    min_size=1,
    max_size=40,
)


def _call(i: int, src: int, dst: int, blocked: bool) -> Call:
    return Call(
        call_id=i, t_hours=1.0 + i * 1e-3, src_asn=src, dst_asn=dst,
        src_country="US", dst_country="US", src_user=src, dst_user=dst,
        direct_blocked=blocked,
    )


def _seeded_steps(n: int, seed: int) -> list[tuple[bool, str, bool]]:
    rng = np.random.default_rng(seed)
    kinds = ["shared", "copy", "other", "rotated"]
    return [
        (bool(rng.integers(2)), kinds[int(rng.integers(4))], bool(rng.integers(2)))
        for _ in range(n)
    ]


def assert_menus_normalise_per_call(steps, policy_type=ViaPolicy) -> None:
    policy = policy_type(ViaConfig(seed=1), inter_relay=inter_relay, registry=MetricsRegistry())
    keyer = PairKeyer("as")
    shared = list(_MENU)
    for i, (reverse, which, blocked) in enumerate(steps):
        if which == "rotated":
            shared.append(shared.pop(0))
        menu = {"shared": shared, "copy": list(shared), "other": _OTHER_MENU,
                "rotated": shared}[which]
        call = _call(i, 7, 3, blocked) if reverse else _call(i, 3, 7, blocked)
        view = keyer.view(call)
        _, normalised = policy._state_for(view.pair_key, call.direct_blocked, menu, view.flipped)
        assert normalised == reference_normalize(view, menu), (i, reverse, which)


class _StaleOrientation(ViaPolicy):
    """Keeps one normalised menu per pair: whichever orientation came first."""

    def _state_for(self, pair_key, direct_blocked, options, flipped=False):
        state = self._pair_state.get((pair_key, direct_blocked))
        if state is not None:
            flipped = next(iter(state.menus))
        return super()._state_for(pair_key, direct_blocked, options, flipped)


class _Renormalising(ViaPolicy):
    """The per-call form: forgets every cached menu before each call."""

    def _assign(self, call, options):
        for state in self._pair_state.values():
            state.menus.clear()
        return super()._assign(call, options)


class TestMenuNormalisation:
    @given(_steps)
    def test_cached_menus_equal_per_call_normalisation(self, steps):
        assert_menus_normalise_per_call(steps)

    def test_a_long_seeded_stream(self):
        assert_menus_normalise_per_call(_seeded_steps(400, seed=3))

    @pytest.mark.parametrize("config", [
        {},
        {"budget": 0.3, "per_relay_cap": 0.2},
        {"selector": "greedy"},
        {"topk_mode": "argmin"},
    ])
    def test_streams_equal_the_per_call_form(self, config):
        """Choices, RNG position and checkpoint of a policy that caches
        menus equal those of one that normalises every call."""
        calls, options_per_call, metrics = make_stream(n_calls=1500, seed=5)
        ours, theirs = (
            cls(ViaConfig(seed=9, **config), inter_relay=inter_relay, registry=MetricsRegistry())
            for cls in (ViaPolicy, _Renormalising)
        )
        for policy in (ours, theirs):
            policy.set_down_relays([2])
        for call, menu, row in zip(calls, options_per_call, metrics):
            a, b = ours.assign(call, menu), theirs.assign(call, menu)
            assert a == b
            ours.observe(call, a, row)
            theirs.observe(call, b, row)
        assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state
        assert ours.state_dict() == theirs.state_dict()

    def test_planted_stale_orientation_fails_it(self):
        with pytest.raises(AssertionError):
            assert_menus_normalise_per_call(_seeded_steps(200, seed=3), policy_type=_StaleOrientation)
