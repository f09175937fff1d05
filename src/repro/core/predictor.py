"""Performance prediction with confidence bounds: stage 3 input (§4.4).

For every (pair, relaying option) the :class:`Predictor` produces a
:class:`Prediction` -- per-metric mean and standard error, from which the
95% bounds ``Pred_lower`` / ``Pred_upper`` of the paper follow.  Sources,
in order of preference:

1. **direct history** -- the pair actually used this option in the last
   window and has enough samples;
2. **tomography** -- the path-stitched estimate (relayed options only),
   with SEM inflated to reflect the indirection;
3. **coordinates** (optional extension) -- for the *direct* path of a
   never-seen pair, a Vivaldi embedding supplies the RTT while loss and
   jitter fall back to the window's population means, all with wide
   uncertainty;
4. otherwise ``None`` -- the option is unpredictable this window (it can
   still be reached by the ε general-exploration arm of Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.history import CallHistory, RunningStat
from repro.core.tomography import TomographyModel
from repro.netmodel.metrics import METRICS
from repro.netmodel.options import DIRECT, RelayOption
from repro.core.coordinates import CoordinateSystem

__all__ = ["Prediction", "Predictor"]

_Z95 = 1.96


@dataclass(frozen=True, slots=True)
class Prediction:
    """Mean and SEM per metric, with the paper's 95% bounds.

    ``mean``/``sem`` are length-3 arrays ordered (rtt_ms, loss_rate,
    jitter_ms).  ``n`` is the number of underlying direct samples (0 for
    pure tomography predictions); ``source`` records provenance.
    """

    mean: np.ndarray
    sem: np.ndarray
    n: int
    source: str

    def lower(self, metric_idx: int) -> float:
        """``Pred_lower``: mean - 1.96 SEM (§4.4)."""
        return float(self.mean[metric_idx] - _Z95 * self.sem[metric_idx])

    def upper(self, metric_idx: int) -> float:
        """``Pred_upper``: mean + 1.96 SEM (§4.4)."""
        return float(self.mean[metric_idx] + _Z95 * self.sem[metric_idx])

    def value(self, metric_idx: int) -> float:
        return float(self.mean[metric_idx])


def metric_index(metric: str) -> int:
    """Index of a metric name in prediction arrays (rtt=0, loss=1, jitter=2)."""
    try:
        return METRICS.index(metric)
    except ValueError:
        raise KeyError(f"unknown metric {metric!r}; expected one of {METRICS}") from None


class Predictor:
    """Window-scoped prediction from history, tomography and coordinates.

    Built once per refresh period over the *previous* window's data (the
    paper refreshes stages 2-3 every T = 24 h).  ``min_direct_samples``
    gates how many same-pair samples are needed before history is trusted
    over tomography; ``sem_rel_floor`` keeps tiny samples from producing
    overconfident (near-zero) confidence intervals.
    """

    def __init__(
        self,
        history: CallHistory,
        window: int,
        *,
        tomography: TomographyModel | None = None,
        coordinates: "CoordinateSystem | None" = None,
        min_direct_samples: int = 3,
        sem_rel_floor: float = 0.05,
        tomography_sem_inflation: float = 1.5,
        coordinate_rel_sem: float = 0.30,
    ) -> None:
        if min_direct_samples < 1:
            raise ValueError("min_direct_samples must be >= 1")
        self._history = history
        self._window = window
        self._tomography = tomography
        self._coordinates = coordinates
        self._min_direct = min_direct_samples
        self._sem_rel_floor = sem_rel_floor
        self._tomo_inflation = tomography_sem_inflation
        self._coord_rel_sem = coordinate_rel_sem
        self._cache: dict[tuple[Hashable, RelayOption], Prediction | None] = {}
        self._direct_prior: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def window(self) -> int:
        return self._window

    def predict(
        self, pair_key: tuple[Hashable, Hashable], option: RelayOption
    ) -> Prediction | None:
        """Prediction for one (canonical pair, canonical option), or None."""
        cache_key = (pair_key, option)
        if cache_key in self._cache:
            return self._cache[cache_key]
        prediction = self._predict_uncached(pair_key, option)
        self._cache[cache_key] = prediction
        return prediction

    def _predict_uncached(
        self, pair_key: tuple[Hashable, Hashable], option: RelayOption
    ) -> Prediction | None:
        stat = self._history.stats(pair_key, option, self._window)
        if stat is not None and stat.count >= self._min_direct:
            return self._from_history(stat)
        if self._tomography is not None:
            side_s, side_d = pair_key
            stitched = self._tomography.predict(side_s, side_d, option)
            if stitched is not None:
                mean, sem = stitched
                sem = self._floor_sem(mean, sem * self._tomo_inflation)
                return Prediction(mean=mean, sem=sem, n=0, source="tomography")
        # Thin direct history is still better than nothing when tomography
        # cannot reach the option (e.g. the direct path).
        if stat is not None and stat.count >= 1:
            return self._from_history(stat, thin=True)
        if self._coordinates is not None and option == DIRECT:
            return self._from_coordinates(pair_key)
        return None

    def _from_coordinates(
        self, pair_key: tuple[Hashable, Hashable]
    ) -> Prediction | None:
        """Direct-path fallback from the Vivaldi embedding (extension).

        The embedding supplies RTT; loss and jitter come from the window's
        direct-path population means.  Everything carries wide uncertainty
        so the bandit treats the option as worth verifying, not trusting.
        """
        assert self._coordinates is not None
        side_s, side_d = pair_key
        rtt = self._coordinates.estimate_rtt(side_s, side_d)
        if rtt is None:
            return None
        prior = self._direct_population_prior()
        if prior is None:
            return None
        prior_mean, prior_sem = prior
        mean = np.array([rtt, prior_mean[1], prior_mean[2]])
        confidence = self._coordinates.estimation_confidence(side_s, side_d) or 1.0
        rtt_sem = max(self._coord_rel_sem, confidence) * rtt
        sem = np.array([rtt_sem, prior_sem[1], prior_sem[2]])
        return Prediction(mean=mean, sem=self._floor_sem(mean, sem), n=0, source="coordinates")

    def _direct_population_prior(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Window-wide mean/spread of direct-path metrics (weak prior)."""
        if self._direct_prior is None:
            totals = RunningStat()
            for (_pair, option), stat in self._history.window_items(self._window):
                if option == DIRECT and stat.count > 0:
                    totals.push(stat.mean_metrics())
            if totals.count < 5:
                return None
            mean = totals.mean
            spread = np.sqrt(totals.variance())
            self._direct_prior = (mean, np.maximum(spread, 0.5 * np.abs(mean)))
        return self._direct_prior

    def _from_history(self, stat: RunningStat, thin: bool = False) -> Prediction:
        mean = stat.mean
        sem = stat.sem()
        if thin:
            # One or two samples: widen uncertainty substantially.
            sem = np.maximum(sem, 0.5 * np.abs(mean))
        sem = self._floor_sem(mean, sem)
        return Prediction(
            mean=mean, sem=sem, n=stat.count, source="history-thin" if thin else "history"
        )

    def _floor_sem(self, mean: np.ndarray, sem: np.ndarray) -> np.ndarray:
        return np.maximum(sem, self._sem_rel_floor * np.abs(mean) + 1e-9)

    def predict_all(
        self,
        pair_key: tuple[Hashable, Hashable],
        options: list[RelayOption],
    ) -> dict[RelayOption, Prediction]:
        """Predictions for every predictable option of a pair."""
        result: dict[RelayOption, Prediction] = {}
        for option in options:
            prediction = self.predict(pair_key, option)
            if prediction is not None:
                result[option] = prediction
        return result
