"""Unit tests for repro.core.bandit (Algorithm 3: modified UCB1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bandit import UCB1Explorer
from repro.core.predictor import Prediction
from repro.netmodel.options import RelayOption


def arms(n: int) -> list[RelayOption]:
    return [RelayOption.bounce(i) for i in range(n)]


def prediction(mean: float, sem: float = 5.0) -> Prediction:
    return Prediction(
        mean=np.array([mean, 0.01, 5.0]), sem=np.array([sem, 0.001, 0.5]),
        n=5, source="history",
    )


class TestConstruction:
    def test_rejects_empty_arms(self):
        with pytest.raises(ValueError):
            UCB1Explorer([], normalizer=1.0)

    def test_rejects_duplicate_arms(self):
        a = arms(2)
        with pytest.raises(ValueError):
            UCB1Explorer([a[0], a[0]], normalizer=1.0)

    def test_rejects_bad_normalizer(self):
        with pytest.raises(ValueError):
            UCB1Explorer(arms(2), normalizer=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            UCB1Explorer(arms(2), normalizer=1.0, mode="other")

    @pytest.mark.parametrize("coef", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_exploration_coef(self, coef):
        """A negative coefficient would reach ``math.sqrt`` of a negative
        at the first UCB comparison; reject it when the bandit is built."""
        with pytest.raises(ValueError, match="exploration_coef"):
            UCB1Explorer(arms(2), normalizer=1.0, exploration_coef=coef)

    def test_from_predictions_normalizer_is_mean_upper(self):
        a = arms(3)
        preds = {
            a[0]: prediction(100.0, 10.0),
            a[1]: prediction(150.0, 10.0),
            a[2]: prediction(200.0, 10.0),
        }
        bandit = UCB1Explorer.from_predictions(a, preds, 0)
        expected = np.mean([p.upper(0) for p in preds.values()])
        assert bandit._normalizer == pytest.approx(expected)

    def test_from_predictions_without_any_prediction(self):
        bandit = UCB1Explorer.from_predictions(arms(2), {}, 0)
        assert bandit._normalizer == 1.0


class TestSelection:
    def test_untried_arms_played_first_in_order(self):
        a = arms(3)
        bandit = UCB1Explorer(a, normalizer=100.0)
        assert bandit.choose() == a[0]
        bandit.update(a[0], 50.0)
        assert bandit.choose() == a[1]
        bandit.update(a[1], 50.0)
        assert bandit.choose() == a[2]

    def test_exploits_clearly_better_arm(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=100.0, exploration_coef=0.05)
        rng = np.random.default_rng(0)
        for _ in range(200):
            choice = bandit.choose()
            cost = rng.normal(50.0, 5.0) if choice == a[0] else rng.normal(150.0, 5.0)
            bandit.update(choice, max(1.0, float(cost)))
        assert bandit.count(a[0]) > 5 * bandit.count(a[1])

    def test_exploration_bonus_revisits_undersampled_arm(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=100.0, exploration_coef=0.5)
        # Arm 0 looks slightly better but has been played a lot; arm 1 has
        # one sample -- a large bonus should send us back to arm 1.
        for _ in range(50):
            bandit.update(a[0], 100.0)
        bandit.update(a[1], 110.0)
        assert bandit.choose() == a[1]

    def test_zero_coef_is_pure_greedy(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=100.0, exploration_coef=0.0)
        bandit.update(a[0], 100.0)
        bandit.update(a[1], 90.0)
        for _ in range(10):
            assert bandit.choose() == a[1]
            bandit.update(a[1], 90.0)


class TestNormalisation:
    def test_classic_mode_uses_max_seen(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=1.0, mode="classic")
        bandit.update(a[0], 100.0)
        bandit.update(a[1], 1000.0)  # outlier compresses the scale
        assert bandit._effective_normalizer() == pytest.approx(1000.0)

    def test_via_mode_ignores_outliers(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=120.0, mode="via")
        bandit.update(a[0], 100.0)
        bandit.update(a[1], 10_000.0)
        assert bandit._effective_normalizer() == pytest.approx(120.0)

    def test_outlier_robustness_story(self):
        """With one huge outlier, via-normalisation still separates the
        arms while classic normalisation nearly cannot (Figure 15)."""
        a = arms(2)
        via = UCB1Explorer(a, normalizer=120.0, mode="via", exploration_coef=0.1)
        classic = UCB1Explorer(a, normalizer=1.0, mode="classic", exploration_coef=0.1)
        for bandit in (via, classic):
            for _ in range(20):
                bandit.update(a[0], 100.0)
                bandit.update(a[1], 110.0)
            bandit.update(a[1], 50_000.0)  # one pathological RTT sample

        def gap(bandit: UCB1Explorer) -> float:
            n = bandit._effective_normalizer()
            means = [bandit.mean_cost(x) / n for x in a]
            return abs(means[1] - means[0])

        assert gap(via) > 20 * gap(classic)


class TestUpdate:
    def test_accounting(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=1.0)
        bandit.update(a[0], 10.0)
        bandit.update(a[0], 20.0)
        assert bandit.count(a[0]) == 2
        assert bandit.mean_cost(a[0]) == pytest.approx(15.0)
        assert bandit.mean_cost(a[1]) is None
        assert bandit.total_plays == 2

    def test_rejects_unknown_arm(self):
        bandit = UCB1Explorer(arms(1), normalizer=1.0)
        with pytest.raises(KeyError):
            bandit.update(RelayOption.bounce(99), 1.0)

    def test_rejects_negative_cost(self):
        bandit = UCB1Explorer(arms(1), normalizer=1.0)
        with pytest.raises(ValueError):
            bandit.update(arms(1)[0], -1.0)

    def test_rejects_nan_cost(self):
        bandit = UCB1Explorer(arms(1), normalizer=1.0)
        with pytest.raises(ValueError):
            bandit.update(arms(1)[0], float("nan"))

    def test_snapshot(self):
        a = arms(2)
        bandit = UCB1Explorer(a, normalizer=1.0)
        bandit.update(a[0], 10.0)
        snap = bandit.snapshot()
        assert snap[str(a[0])]["count"] == 1.0
        assert np.isnan(snap[str(a[1])]["mean_cost"])
