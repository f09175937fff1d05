"""Unit tests for repro.core.history (Welford aggregates, windowed store)."""

from __future__ import annotations

import inspect
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import history as history_module
from repro.core.history import (
    CallHistory,
    CheckpointCodec,
    RunningStat,
    confidence_bounds,
    history_from_dict,
    history_to_dict,
    option_from_dict,
    option_to_dict,
    sem_floor,
)
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption


def metrics(rtt: float, loss: float = 0.01, jitter: float = 5.0) -> PathMetrics:
    return PathMetrics(rtt_ms=rtt, loss_rate=loss, jitter_ms=jitter)


#: Anything ``json.loads`` can hand a parser, including ``1e999``/``-1e999``.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _slots(node) -> list:
    """Every (container, key) of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    slots = []
    for key, child in items:
        slots.append((node, key))
        slots.extend(_slots(child))
    return slots


@st.composite
def _mutated_checkpoints(draw):
    """A valid two-window checkpoint with one to three nodes replaced."""
    history = CallHistory()
    history.add((1, 2), DIRECT, 1.0, metrics(100.0))
    history.add((1, 2), DIRECT, 1.5, metrics(120.0))
    history.add(((3, 4), "x"), RelayOption.transit(1, 2), 30.0, metrics(80.0))
    payload = json.loads(json.dumps(history_to_dict(history)))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(_slots(payload)))
        container[key] = draw(_json_values)
    return payload


class TestRunningStat:
    def test_empty(self):
        stat = RunningStat()
        assert stat.count == 0
        assert (stat.mean == 0).all()
        assert (stat.sem() == 0).all()

    def test_single_sample_mean(self):
        stat = RunningStat()
        stat.push(metrics(100.0, 0.02, 7.0))
        assert stat.mean == pytest.approx([100.0, 0.02, 7.0])
        assert (stat.variance() == 0).all()

    @given(st.lists(st.floats(min_value=0.1, max_value=1000.0), min_size=2, max_size=50))
    @settings(max_examples=50)
    def test_matches_numpy(self, rtts):
        stat = RunningStat()
        for rtt in rtts:
            stat.push(metrics(rtt))
        assert stat.mean[0] == pytest.approx(np.mean(rtts), rel=1e-9)
        assert stat.variance()[0] == pytest.approx(np.var(rtts, ddof=1), rel=1e-6, abs=1e-9)
        assert stat.sem()[0] == pytest.approx(
            np.std(rtts, ddof=1) / np.sqrt(len(rtts)), rel=1e-6, abs=1e-9
        )

    def test_mean_metrics_roundtrip(self):
        stat = RunningStat()
        stat.push(metrics(10.0, 0.5, 2.0))
        stat.push(metrics(20.0, 0.3, 4.0))
        m = stat.mean_metrics()
        assert m.rtt_ms == pytest.approx(15.0)
        assert m.loss_rate == pytest.approx(0.4)
        assert m.jitter_ms == pytest.approx(3.0)

    def test_mean_is_copy(self):
        stat = RunningStat()
        stat.push(metrics(10.0))
        stat.mean[0] = 999.0
        assert stat.mean[0] == pytest.approx(10.0)


class TestCallHistory:
    def test_window_of(self):
        history = CallHistory(window_hours=24.0)
        assert history.window_of(0.0) == 0
        assert history.window_of(23.99) == 0
        assert history.window_of(24.0) == 1
        assert history.window_of(100.0) == 4

    def test_window_of_custom_width(self):
        history = CallHistory(window_hours=6.0)
        assert history.window_of(13.0) == 2

    def test_window_of_rejects_negative(self):
        with pytest.raises(ValueError):
            CallHistory().window_of(-0.1)

    def test_rejects_bad_window_width(self):
        with pytest.raises(ValueError):
            CallHistory(window_hours=0.0)

    def test_add_and_stats(self):
        history = CallHistory()
        history.add(("a", "b"), DIRECT, 5.0, metrics(100.0))
        history.add(("a", "b"), DIRECT, 6.0, metrics(200.0))
        stat = history.stats(("a", "b"), DIRECT, 0)
        assert stat is not None
        assert stat.count == 2
        assert stat.mean[0] == pytest.approx(150.0)

    def test_stats_separate_windows(self):
        history = CallHistory()
        history.add(("a", "b"), DIRECT, 5.0, metrics(100.0))
        history.add(("a", "b"), DIRECT, 30.0, metrics(300.0))
        assert history.stats(("a", "b"), DIRECT, 0).mean[0] == pytest.approx(100.0)
        assert history.stats(("a", "b"), DIRECT, 1).mean[0] == pytest.approx(300.0)

    def test_stats_missing_returns_none(self):
        history = CallHistory()
        assert history.stats(("a", "b"), DIRECT, 0) is None
        history.add(("a", "b"), DIRECT, 5.0, metrics(100.0))
        assert history.stats(("a", "b"), RelayOption.bounce(1), 0) is None
        assert history.stats(("x", "y"), DIRECT, 0) is None

    def test_window_items(self):
        history = CallHistory()
        history.add(("a", "b"), DIRECT, 1.0, metrics(100.0))
        history.add(("a", "b"), RelayOption.bounce(0), 2.0, metrics(80.0))
        items = dict(history.window_items(0))
        assert len(items) == 2
        assert list(history.window_items(5)) == []

    def test_pair_options(self):
        history = CallHistory()
        history.add(("a", "b"), DIRECT, 1.0, metrics(100.0))
        history.add(("a", "b"), RelayOption.bounce(2), 1.5, metrics(90.0))
        history.add(("x", "y"), RelayOption.bounce(4), 1.5, metrics(90.0))
        options = history.pair_options(("a", "b"), 0)
        assert set(options) == {DIRECT, RelayOption.bounce(2)}

    def test_prune_before(self):
        history = CallHistory()
        for day in range(5):
            history.add(("a", "b"), DIRECT, day * 24.0 + 1.0, metrics(100.0))
        assert history.windows() == [0, 1, 2, 3, 4]
        dropped = history.prune_before(3)
        assert dropped == 3
        assert history.windows() == [3, 4]
        assert 2 not in history
        assert 3 in history

    def test_contains_rejects_non_int(self):
        with pytest.raises(TypeError):
            ("a", "b") in CallHistory()  # noqa: B015

    def test_total_calls(self):
        history = CallHistory()
        for i in range(7):
            history.add(("a", "b"), DIRECT, float(i * 10), metrics(100.0))
        assert history.total_calls() == 7


class TestHelpers:
    def test_sem_floor_relative(self):
        assert sem_floor(100.0) == pytest.approx(5.0)

    def test_sem_floor_absolute_for_tiny_means(self):
        assert sem_floor(0.0) == pytest.approx(1e-6)

    def test_confidence_bounds(self):
        lower, upper = confidence_bounds(10.0, 1.0)
        assert lower == pytest.approx(10.0 - 1.96)
        assert upper == pytest.approx(10.0 + 1.96)

    def test_confidence_bounds_rejects_negative_sem(self):
        with pytest.raises(ValueError):
            confidence_bounds(10.0, -1.0)


class TestCheckpointValidation:
    """Regression: ``history_from_dict`` used to trust checkpoints blindly;
    corrupt entries (negative counts, NaNs, truncated vectors) silently
    poisoned every downstream mean/SEM instead of failing the load."""

    def _checkpoint(self) -> dict:
        history = CallHistory()
        history.add(("a", "b"), DIRECT, 1.0, metrics(100.0))
        history.add(("a", "b"), DIRECT, 1.5, metrics(120.0))
        history.add(("a", "b"), RelayOption.bounce(1), 2.0, metrics(80.0))
        return history_to_dict(history)

    def test_valid_roundtrip_still_loads(self):
        restored = history_from_dict(self._checkpoint())
        assert restored.total_calls() == 3
        stat = restored.stats(("a", "b"), DIRECT, 0)
        assert stat.count == 2
        assert stat.mean[0] == pytest.approx(110.0)

    def test_negative_count_rejected(self):
        data = self._checkpoint()
        data["windows"]["0"][0]["count"] = -3
        with pytest.raises(ValueError, match="count"):
            history_from_dict(data)

    def test_non_integer_count_rejected(self):
        data = self._checkpoint()
        data["windows"]["0"][0]["count"] = "2"
        with pytest.raises(ValueError, match="count"):
            history_from_dict(data)

    def test_nan_mean_rejected(self):
        data = self._checkpoint()
        data["windows"]["0"][0]["mean"][1] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            history_from_dict(data)

    def test_infinite_m2_rejected(self):
        data = self._checkpoint()
        data["windows"]["0"][0]["m2"][2] = float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            history_from_dict(data)

    def test_negative_m2_rejected(self):
        data = self._checkpoint()
        data["windows"]["0"][0]["m2"][0] = -1.0
        with pytest.raises(ValueError, match="negative m2"):
            history_from_dict(data)

    def test_truncated_mean_vector_rejected(self):
        # A checkpoint cut off mid-write: the mean list lost an element.
        data = self._checkpoint()
        data["windows"]["0"][0]["mean"] = data["windows"]["0"][0]["mean"][:2]
        with pytest.raises(ValueError, match="3 values"):
            history_from_dict(data)

    def test_mismatched_m2_length_rejected(self):
        data = self._checkpoint()
        data["windows"]["0"][0]["m2"] = data["windows"]["0"][0]["m2"] + [0.0]
        with pytest.raises(ValueError, match="3 values"):
            history_from_dict(data)

    def test_missing_entry_field_rejected(self):
        data = self._checkpoint()
        del data["windows"]["0"][0]["m2"]
        with pytest.raises(ValueError, match="corrupt history entry"):
            history_from_dict(data)

    def test_bad_window_index_rejected(self):
        data = self._checkpoint()
        data["windows"]["not-a-window"] = data["windows"].pop("0")
        with pytest.raises(ValueError, match="window index"):
            history_from_dict(data)

    def test_error_names_the_offending_entry(self):
        data = self._checkpoint()
        data["windows"]["0"][1]["count"] = -1
        with pytest.raises(ValueError, match="window 0, entry 1"):
            history_from_dict(data)

    @pytest.mark.parametrize(
        "payload",
        [
            {"windows": {}},
            {"window_hours": [1], "windows": {}},
            {"window_hours": 24.0, "windows": []},
            {"window_hours": 24.0, "windows": {"0": 5}},
            {"window_hours": float("inf"), "windows": {}},
            {"window_hours": "nan", "windows": {}},
            {"window_hours": 10**400, "windows": {}},
            [],
        ],
        ids=[
            "missing-window-hours", "window-hours-list", "windows-list",
            "entries-int", "infinite-window", "nan-window", "huge-window", "not-a-dict",
        ],
    )
    def test_hostile_payload_shapes_are_value_errors(self, payload):
        """A gossip peer's sync payload is parsed by the same function: the
        wrong container anywhere is a ValueError, never KeyError/TypeError/
        AttributeError escaping the caller's handler."""
        with pytest.raises(ValueError):
            history_from_dict(payload)

    @pytest.mark.parametrize(
        "field, value",
        [("count", 10**400), ("count", True), ("mean", [10**400, 0.0, 0.0]),
         ("mean", [-1.0, 0.0, 0.0])],
        ids=["huge-count", "bool-count", "huge-mean", "negative-mean"],
    )
    def test_unusable_aggregates_rejected(self, field, value):
        data = self._checkpoint()
        data["windows"]["0"][0][field] = value
        with pytest.raises(ValueError):
            history_from_dict(data)

    @given(payload=st.one_of(_json_values, _mutated_checkpoints()))
    def test_hostile_payload_gives_value_error_or_usable_history(self, payload):
        try:
            history = history_from_dict(payload)
        except ValueError:
            return
        twin = CallHistory(window_hours=history.window_hours).merge(history)
        assert twin.total_calls() == history.total_calls()
        for window in history.windows():
            for _key, stat in history.window_items(window):
                assert np.isfinite(stat.sem()).all()
                stat.mean_metrics()
        reloaded = history_from_dict(json.loads(json.dumps(history_to_dict(history))))
        assert reloaded.total_calls() == history.total_calls()


# ----------------------------------------------------------------------
# CheckpointCodec: shared leaves must not change a verdict or a spelling
# ----------------------------------------------------------------------

#: Relay ids spelled the ways JSON can spell one integer (True == 1 == 1.0
#: and -0.0 == 0.0 == 0, each hashing alike), plus one payload the
#: constructor refuses.
SPELLINGS = [
    {"kind": "bounce", "ingress": 1, "egress": 1},
    {"kind": "bounce", "ingress": True, "egress": True},
    {"kind": "bounce", "ingress": 1.0, "egress": 1.0},
    {"kind": "transit", "ingress": 1, "egress": 2},
    {"kind": "transit", "ingress": True, "egress": 2.0},
    {"kind": "transit", "ingress": 0, "egress": 2},
    {"kind": "transit", "ingress": 0.0, "egress": 2},
    {"kind": "transit", "ingress": -0.0, "egress": 2},
    {"kind": "transit", "ingress": 1, "egress": True},  # 1 == True: refused
]


def _orders() -> list[list[dict]]:
    """Every two spellings in both orders, and the whole list both ways."""
    pairs = [[a, b] for a in SPELLINGS for b in SPELLINGS if a is not b]
    return pairs + [SPELLINGS, SPELLINGS[::-1]]


def _spelled(option: RelayOption) -> tuple:
    """An option with its ids' exact spellings beside it."""
    return option, repr(option.ingress), repr(option.egress)


def _outcome(decode, data: dict):
    """What decoding ``data`` gives: the error's type, or the option."""
    try:
        option = decode(dict(data))
    except Exception as exc:  # the verdict is part of the contract
        return type(exc)
    return _spelled(option)


def _memo_mismatches(codec_class) -> list:
    """Orders in which a fresh ``codec_class().decode_option`` gives any
    other outcome than the unmemoized :func:`option_from_dict`."""
    mismatches = []
    for order in _orders():
        codec = codec_class()
        got = [_outcome(codec.decode_option, data) for data in order]
        want = [_outcome(option_from_dict, data) for data in order]
        if got != want:
            mismatches.append((order, got, want))
    return mismatches


def _planted_codec(old: str, new: str) -> type:
    """CheckpointCodec from a copy of the history module with ``old`` in
    its source replaced by ``new``."""
    source = inspect.getsource(history_module)
    assert source.count(old) == 1, f"planted-bug anchor moved: {old!r}"
    module = types.ModuleType("planted_history")
    exec(compile(source.replace(old, new), history_module.__file__, "exec"), vars(module))
    return module.CheckpointCodec


class TestCheckpointCodec:
    def test_restore_memo_is_exactly_the_constructor(self):
        assert _memo_mismatches(CheckpointCodec) == []

    def test_a_memo_keyed_on_values_alone_is_caught(self):
        planted = _planted_codec(
            'key = (data["kind"], ingress, egress, type(ingress), type(egress))',
            'key = (data["kind"], ingress, egress)',
        )
        assert _memo_mismatches(planted)

    def test_equal_integer_payloads_share_one_option(self):
        codec = CheckpointCodec()
        first = codec.decode_option({"kind": "transit", "ingress": 3, "egress": 4})
        assert codec.decode_option({"kind": "transit", "ingress": 3, "egress": 4}) is first

    def test_restored_history_keeps_every_spelling(self):
        valid = [d for d in SPELLINGS if _outcome(option_from_dict, d) is not ValueError]
        entry = {"count": 1, "mean": [1.0, 0.0, 1.0], "m2": [0.0, 0.0, 0.0]}
        payload = {
            "window_hours": 24.0,
            "windows": {"0": [
                {**entry, "pair": [1, 10 + i], "option": dict(d)} for i, d in enumerate(valid)
            ]},
        }
        restored = history_from_dict(payload)
        keys = [key for key, _stat in restored.window_items(0)]
        assert [(pair, _spelled(option)) for pair, option in keys] == [
            ((1, 10 + i), _outcome(option_from_dict, d)) for i, d in enumerate(valid)
        ]

    def test_shared_leaves_write_each_mention_as_a_copy_would(self):
        """Equal options and pair keys spelled differently (1, True, 1.0)
        must keep their own spellings in the shared tree."""
        history = CallHistory()
        for i, option in enumerate([
            RelayOption.bounce(1), RelayOption.bounce(True), RelayOption.bounce(1.0),
            RelayOption.transit(1, 2), RelayOption.transit(1.0, 2), DIRECT,
        ]):
            for pair in ((1, 2), (True, 2), (1.0, 2), ("a", "b"), ((1, 2), (3, 4))):
                history.add(pair, option, 1.0 + i, metrics(100.0 + i))
                history.add((i, pair[0]), option, 30.0, metrics(90.0))
        copies = {
            "window_hours": history.window_hours,
            "windows": {
                str(window): [
                    {
                        "pair": [history_module._encode_key(side) for side in pair],
                        "option": option_to_dict(option),
                        "count": stat.count,
                        "mean": [float(x) for x in stat._mean],
                        "m2": [float(x) for x in stat._m2],
                    }
                    for (pair, option), stat in history.window_items(window)
                ]
                for window in history.windows()
            },
        }
        assert json.dumps(history_to_dict(history)) == json.dumps(copies)
