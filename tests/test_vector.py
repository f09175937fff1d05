"""Batch-vs-scalar equivalence suite for the vectorized hot path.

Every test pins the contract documented in ``docs/performance.md``: the
columnar layers (``RunningStat.push_many``, ``CallHistory.add_group``,
``UCB1Explorer.update_many``, ``top_k_from_bounds``,
``epsilon_explorations``) and the policy-level
``assign_many``/``observe_many`` interface must be **bit-identical** to
the scalar path -- same outputs, same RNG draw order, same post-state.
Floating-point comparisons are therefore exact (``==`` /
``np.array_equal``), never approximate: the vector path is required to
perform the same IEEE-754 operations in the same order, not merely land
close.

Run with ``make test-vector``; the differential harness
(``repro.verify.differential``) proves the same contract end-to-end
against the algorithm oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.bandit import UCB1Explorer
from repro.core.history import CallHistory, RunningStat, history_to_dict
from repro.core.policy import ViaConfig, ViaPolicy
from repro.core.topk import top_k_from_bounds
from repro.core.vector import CallBatch, MetricsBatch, epsilon_explorations
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.simulation.replay import replay
from repro.verify.differential import VectorizedViaPolicy, run_differential
from tests.vector_stream import inter_relay, make_stream

pytestmark = pytest.mark.vector

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_rtt = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
_loss = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
_jitter = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
_triples = st.lists(st.tuples(_rtt, _loss, _jitter), max_size=40)
_finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

_MENU = [DIRECT, RelayOption.bounce(1), RelayOption.bounce(2), RelayOption.transit(1, 2)]


def _metrics(row) -> PathMetrics:
    return PathMetrics(rtt_ms=row[0], loss_rate=row[1], jitter_ms=row[2])


# ---------------------------------------------------------------------------
# RunningStat / CallHistory
# ---------------------------------------------------------------------------


@given(prefix=_triples, rows=_triples)
def test_push_many_matches_sequential_push(prefix, rows):
    """push_many == a loop of push: same count, mean and M2, bit for bit."""
    scalar, vector = RunningStat(), RunningStat()
    for row in prefix:  # start from an arbitrary existing aggregate
        scalar.push(_metrics(row))
        vector.push(_metrics(row))
    for row in rows:
        scalar.push(_metrics(row))
    vector.push_many(np.array(rows, dtype=np.float64).reshape(len(rows), 3))
    assert vector.count == scalar.count
    assert np.array_equal(vector.mean, scalar.mean)
    assert np.array_equal(vector.variance(), scalar.variance())
    assert np.array_equal(vector.sem(), scalar.sem())


def test_push_many_rejects_bad_shape():
    stat = RunningStat()
    with pytest.raises(ValueError):
        stat.push_many(np.zeros((4, 2)))


@given(
    calls=st.lists(
        st.tuples(
            st.integers(0, 2),  # pair-key index
            st.integers(0, len(_MENU) - 1),  # option index
            st.floats(0.0, 72.0, allow_nan=False),  # t_hours (3 windows)
            st.tuples(_rtt, _loss, _jitter),
        ),
        max_size=60,
    )
)
def test_add_group_matches_sequential_add(calls):
    """add_group per first-seen (pair, option, window) group == a loop of
    add: same cells, same aggregates, same window-bucket insertion order
    (observable through serialisation)."""
    pairs = [(100, 200), (100, 201), (150, 250)]
    scalar, vector = CallHistory(), CallHistory()
    groups: dict[tuple, list[tuple[float, float, float]]] = {}
    for pair_idx, opt_idx, t_hours, row in calls:
        scalar.add(pairs[pair_idx], _MENU[opt_idx], t_hours, _metrics(row))
        key = (pairs[pair_idx], _MENU[opt_idx], scalar.window_of(t_hours))
        groups.setdefault(key, []).append(row)
    for (pair_key, option, window), rows in groups.items():
        vector.add_group(pair_key, option, window, np.array(rows, dtype=np.float64))
    assert history_to_dict(vector) == history_to_dict(scalar)


# ---------------------------------------------------------------------------
# Bandit
# ---------------------------------------------------------------------------


@given(
    plays=st.lists(
        st.tuples(st.integers(0, 2), st.floats(0.0, 500.0, allow_nan=False)),
        max_size=50,
    )
)
def test_update_many_matches_grouped_updates(plays):
    """Grouping a play sequence by arm and folding each group with
    update_many leaves the bandit in the exact state of the scalar loop
    (per-arm sums are order-preserved; cross-arm totals commute)."""
    arms = [RelayOption.bounce(i) for i in (1, 2, 3)]
    scalar = UCB1Explorer(list(arms), normalizer=50.0)
    vector = UCB1Explorer(list(arms), normalizer=50.0)
    for arm_idx, cost in plays:
        scalar.update(arms[arm_idx], cost)
    groups: dict[int, list[float]] = {}
    for arm_idx, cost in plays:
        groups.setdefault(arm_idx, []).append(cost)
    for arm_idx, costs in groups.items():
        vector.update_many(arms[arm_idx], costs)
    assert vector.total_plays == scalar.total_plays
    assert vector.max_seen_cost == scalar.max_seen_cost
    for arm in arms:
        assert vector.count(arm) == scalar.count(arm)
        assert vector.mean_cost(arm) == scalar.mean_cost(arm)


def test_update_many_rejects_whole_batch_on_bad_cost():
    bandit = UCB1Explorer([DIRECT], normalizer=1.0)
    with pytest.raises(ValueError):
        bandit.update_many(DIRECT, [1.0, 2.0, -3.0])
    assert bandit.total_plays == 0  # no partial effect


# ---------------------------------------------------------------------------
# Top-k
# ---------------------------------------------------------------------------


def _scalar_top_k(lowers, uppers, means, max_k):
    """The historical scalar walk of Algorithm 2 (reference oracle)."""
    order = sorted(range(len(lowers)), key=lambda i: lowers[i])  # stable
    kept: list[int] = []
    running_upper = -np.inf
    for idx in order:
        if kept and lowers[idx] > running_upper:
            break
        kept.append(idx)
        running_upper = max(running_upper, uppers[idx])
    kept = sorted(kept, key=lambda i: means[i])  # stable re-rank
    if max_k is not None:
        kept = kept[:max_k]
    return kept


@given(
    bounds=st.lists(
        st.tuples(_finite, st.floats(0.0, 100.0, allow_nan=False), _finite),
        max_size=16,
    ),
    max_k=st.one_of(st.none(), st.integers(1, 6)),
)
def test_top_k_from_bounds_matches_scalar_walk(bounds, max_k):
    lowers = np.array([b[0] for b in bounds])
    uppers = np.array([b[0] + b[1] for b in bounds])  # upper >= lower
    means = np.array([b[2] for b in bounds])
    kept = top_k_from_bounds(lowers, uppers, means, max_k=max_k)
    assert kept.tolist() == _scalar_top_k(lowers, uppers, means, max_k)


# ---------------------------------------------------------------------------
# Epsilon exploration RNG
# ---------------------------------------------------------------------------


def _scalar_epsilon(rng, epsilon, lens):
    picks = []
    for i, n_options in enumerate(lens):
        if rng.random() < epsilon:
            picks.append((i, int(rng.integers(n_options))))
    return picks


@given(
    seed=st.integers(0, 2**31),
    epsilon=st.floats(0.0, 1.0, allow_nan=False),
    lens=st.lists(st.integers(1, 8), max_size=80),
)
def test_epsilon_explorations_matches_scalar_coin_loop(seed, epsilon, lens):
    """Same picks AND the same final generator state, bit for bit."""
    scalar_rng = np.random.default_rng(seed)
    vector_rng = np.random.default_rng(seed)
    expected = _scalar_epsilon(scalar_rng, epsilon, lens)
    assert epsilon_explorations(vector_rng, epsilon, lens) == expected
    assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_epsilon_explorations_across_block_boundaries(seed):
    """Batches larger than the speculative block cap (512) still consume
    the bitstream in scalar order across block seams and rewinds."""
    lens = [5] * 1300
    scalar_rng = np.random.default_rng(seed)
    vector_rng = np.random.default_rng(seed)
    expected = _scalar_epsilon(scalar_rng, 0.3, lens)
    assert epsilon_explorations(vector_rng, 0.3, lens) == expected
    assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state
    # The generators must also agree on the *next* bounded draw -- this is
    # what an advance()-based rewind gets wrong (it drops the buffered
    # uint32 half-word used by integers()).
    assert int(vector_rng.integers(1 << 20)) == int(scalar_rng.integers(1 << 20))


# ---------------------------------------------------------------------------
# Policy-level equivalence
# ---------------------------------------------------------------------------


def _small_stream(n_calls=600):
    return make_stream(n_calls=n_calls, n_asns=3, n_bounce=4, seed=9)


def _policy(config, cls=ViaPolicy):
    return cls(config, inter_relay=inter_relay, registry=MetricsRegistry())


@pytest.mark.parametrize(
    "config",
    [
        ViaConfig(seed=7),
        ViaConfig(epsilon=0.25, seed=11),
        ViaConfig(metric="mos", topk_mode="fixed", fixed_k=3, seed=13),
    ],
    ids=["default", "high-epsilon", "mos-fixed-k"],
)
def test_assign_many_observe_many_match_chunked_scalar(config):
    """The batch interface == the scalar loop under the same interleaving
    (assign the whole chunk, then observe it): same choices, same RNG
    position, same learned state."""
    calls, options_per_call, metrics = _small_stream()
    scalar = _policy(config)
    vector = _policy(config)
    chunk = 50
    for i0 in range(0, len(calls), chunk):
        i1 = min(i0 + chunk, len(calls))
        expected = [scalar.assign(calls[i], options_per_call[i]) for i in range(i0, i1)]
        for i, option in zip(range(i0, i1), expected):
            scalar.observe(calls[i], option, metrics[i])
        batch = CallBatch.from_calls(calls[i0:i1])
        choices = vector.assign_many(batch, options_per_call[i0:i1])
        assert choices == expected
        vector.observe_many(
            batch, choices, MetricsBatch.from_metrics(metrics[i0:i1])
        )
    assert vector._rng.bit_generator.state == scalar._rng.bit_generator.state
    assert vector.state_dict() == scalar.state_dict()


def test_vectorized_policy_facade_matches_scalar_interleaved():
    """VectorizedViaPolicy (batches of one) == ViaPolicy per call, with
    fully interleaved assign/observe -- the differential harness's setup."""
    calls, options_per_call, metrics = _small_stream(400)
    scalar = _policy(ViaConfig(seed=21))
    vector = _policy(ViaConfig(seed=21), cls=VectorizedViaPolicy)
    for call, options, row in zip(calls, options_per_call, metrics):
        expected = scalar.assign(call, options)
        assert vector.assign(call, options) == expected
        scalar.observe(call, expected, row)
        vector.observe(call, expected, row)
    assert vector._rng.bit_generator.state == scalar._rng.bit_generator.state
    assert vector.state_dict() == scalar.state_dict()


def test_assign_many_validates_inputs():
    policy = _policy(ViaConfig(seed=3))
    calls, options_per_call, _ = _small_stream(4)
    with pytest.raises(ValueError):
        policy.assign_many(calls, options_per_call[:2])
    with pytest.raises(ValueError):
        policy.assign_many(calls, [[], *options_per_call[1:]])
    assert policy.assign_many([], []) == []


# ---------------------------------------------------------------------------
# Replay integration
# ---------------------------------------------------------------------------


def _outcome_tuples(result):
    return [
        (o.call.call_id, o.option, o.metrics, o.rating) for o in result.outcomes
    ]


def test_batched_replay_covers_trace_and_policies_without_batch_api(
    small_world, small_trace
):
    """batch_calls>1 assigns every call exactly once (delayed feedback may
    change *which* options win, not coverage); a policy without the batch
    interface silently falls back to the serial loop."""
    batched = replay(
        small_world, small_trace, _policy(ViaConfig(seed=5)), seed=5, batch_calls=64
    )
    assert len(batched.outcomes) == len(small_trace.calls)
    assert [o.call.call_id for o in batched.outcomes] == [
        c.call_id for c in small_trace.calls
    ]

    class FirstOption:
        name = "first-option"

        def assign(self, call, options):
            return options[0]

        def observe(self, call, option, metrics):
            return None

    serial = replay(small_world, small_trace, FirstOption(), seed=5)
    fallback = replay(small_world, small_trace, FirstOption(), seed=5, batch_calls=64)
    assert _outcome_tuples(fallback) == _outcome_tuples(serial)

    with pytest.raises(ValueError):
        replay(small_world, small_trace, FirstOption(), seed=5, batch_calls=0)


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def test_run_differential_accepts_vectorized_candidate():
    """The PR 5 oracle harness proves the vector path call for call: the
    vectorized policy as production candidate must not diverge."""
    report = run_differential(
        n_steps=150, seed=6, production_factory=VectorizedViaPolicy
    )
    assert report.n_steps == 150
    assert report.n_assigns > 0 and report.n_observes > 0
