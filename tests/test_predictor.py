"""Unit tests for repro.core.predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import CallHistory
from repro.core.predictor import Prediction, Predictor, metric_index
from repro.core.tomography import TomographyModel
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption


def metrics(rtt: float) -> PathMetrics:
    return PathMetrics(rtt_ms=rtt, loss_rate=0.01, jitter_ms=5.0)


PAIR = ("A", "B")


def history_with(option, rtts, window=0) -> CallHistory:
    history = CallHistory()
    for i, rtt in enumerate(rtts):
        history.add(PAIR, option, window * 24.0 + 0.1 * i, metrics(rtt))
    return history


class TestMetricIndex:
    def test_indices(self):
        assert metric_index("rtt_ms") == 0
        assert metric_index("loss_rate") == 1
        assert metric_index("jitter_ms") == 2

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            metric_index("mos")


class TestPrediction:
    def test_bounds_bracket_mean(self):
        p = Prediction(mean=np.array([100.0, 0.01, 5.0]), sem=np.array([10.0, 0.001, 0.5]),
                       n=10, source="history")
        assert p.lower(0) == pytest.approx(100.0 - 19.6)
        assert p.upper(0) == pytest.approx(100.0 + 19.6)
        assert p.lower(0) < p.value(0) < p.upper(0)


class TestPredictor:
    def test_direct_history_preferred(self):
        history = history_with(DIRECT, [100.0, 110.0, 90.0, 105.0])
        predictor = Predictor(history, 0, min_direct_samples=3)
        prediction = predictor.predict(PAIR, DIRECT)
        assert prediction is not None
        assert prediction.source == "history"
        assert prediction.value(0) == pytest.approx(101.25)
        assert prediction.n == 4

    def test_thin_history_widens_uncertainty(self):
        history = history_with(DIRECT, [100.0])
        predictor = Predictor(history, 0, min_direct_samples=3)
        prediction = predictor.predict(PAIR, DIRECT)
        assert prediction is not None
        assert prediction.source == "history-thin"
        assert prediction.sem[0] >= 0.5 * 100.0

    def test_no_data_returns_none(self):
        predictor = Predictor(CallHistory(), 0)
        assert predictor.predict(PAIR, DIRECT) is None

    def test_wrong_window_returns_none(self):
        history = history_with(DIRECT, [100.0] * 5, window=0)
        predictor = Predictor(history, 1)
        assert predictor.predict(PAIR, DIRECT) is None

    def test_sem_floor_applied(self):
        # Identical samples give zero SEM; the floor keeps CIs open.
        history = history_with(DIRECT, [100.0] * 10)
        predictor = Predictor(history, 0)
        prediction = predictor.predict(PAIR, DIRECT)
        assert prediction is not None
        assert prediction.sem[0] >= 5.0

    def test_tomography_fallback_for_unseen_relay(self):
        bounce = RelayOption.bounce(0)
        obs_history = CallHistory()
        # Other pairs provide the segments; PAIR itself never used bounce(0).
        for i in range(10):
            obs_history.add(("A", "A"), bounce, 0.1 * i, metrics(60.0))
            obs_history.add(("B", "B"), bounce, 0.1 * i, metrics(100.0))
        inter = lambda r1, r2: PathMetrics(0.0, 0.0, 0.0)  # noqa: E731
        tomo = TomographyModel.fit(
            (((k[0][0], k[0][1]), k[1], s) for k, s in obs_history.window_items(0)),
            inter,
        )
        predictor = Predictor(obs_history, 0, tomography=tomo)
        prediction = predictor.predict(PAIR, bounce)
        assert prediction is not None
        assert prediction.source == "tomography"
        assert prediction.value(0) == pytest.approx(80.0, rel=0.05)

    def test_direct_history_beats_tomography_when_dense(self):
        bounce = RelayOption.bounce(0)
        history = history_with(bounce, [70.0] * 10)
        for i in range(10):
            history.add(("A", "A"), bounce, 0.1 * i, metrics(60.0))
            history.add(("B", "B"), bounce, 0.1 * i, metrics(100.0))
        inter = lambda r1, r2: PathMetrics(0.0, 0.0, 0.0)  # noqa: E731
        tomo = TomographyModel.fit(
            (((k[0][0], k[0][1]), k[1], s) for k, s in history.window_items(0)), inter
        )
        predictor = Predictor(history, 0, tomography=tomo)
        prediction = predictor.predict(PAIR, bounce)
        assert prediction is not None
        assert prediction.source == "history"
        assert prediction.value(0) == pytest.approx(70.0, rel=0.05)

    def test_cache_returns_same_object(self):
        history = history_with(DIRECT, [100.0] * 5)
        predictor = Predictor(history, 0)
        assert predictor.predict(PAIR, DIRECT) is predictor.predict(PAIR, DIRECT)

    def test_predict_all_filters_none(self):
        history = history_with(DIRECT, [100.0] * 5)
        predictor = Predictor(history, 0)
        result = predictor.predict_all(PAIR, [DIRECT, RelayOption.bounce(0)])
        assert set(result) == {DIRECT}

    def test_rejects_bad_min_samples(self):
        with pytest.raises(ValueError):
            Predictor(CallHistory(), 0, min_direct_samples=0)
