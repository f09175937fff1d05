"""Performance prediction with confidence bounds: stage 3 input (§4.4).

For every (pair, relaying option) the :class:`Predictor` produces a
:class:`Prediction` -- per-metric mean and standard error, from which the
95% bounds ``Pred_lower`` / ``Pred_upper`` of the paper follow.  Sources,
in order of preference:

1. **direct history** -- the pair actually used this option in the last
   window and has enough samples;
2. **tomography** -- the path-stitched estimate (relayed options only),
   with SEM inflated to reflect the indirection;
3. **thin history** -- one or two same-pair samples, with SEM widened;
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
from repro.netmodel.options import RelayOption

__all__ = ["Prediction", "Predictor"]

_Z95 = 1.96
#: Relative SEM floor: keeps tiny samples from producing overconfident
#: (near-zero) confidence intervals.
_SEM_REL_FLOOR = 0.05
#: Tomography predictions are indirect, so their SEM is widened by this.
_TOMOGRAPHY_SEM_INFLATION = 1.5


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
    """Window-scoped prediction from history and tomography.

    Built once per refresh period over the *previous* window's data (the
    paper refreshes stages 2-3 every T = 24 h).  ``min_direct_samples``
    gates how many same-pair samples are needed before history is trusted
    over tomography.
    """

    def __init__(
        self,
        history: CallHistory,
        window: int,
        *,
        tomography: TomographyModel | None = None,
        min_direct_samples: int = 3,
    ) -> None:
        if min_direct_samples < 1:
            raise ValueError("min_direct_samples must be >= 1")
        self._history = history
        self._window = window
        self._tomography = tomography
        self._min_direct = min_direct_samples
        self._cache: dict[tuple[Hashable, RelayOption], Prediction | None] = {}

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
                sem = self._floor_sem(mean, sem * _TOMOGRAPHY_SEM_INFLATION)
                return Prediction(mean=mean, sem=sem, n=0, source="tomography")
        # Thin direct history is still better than nothing when tomography
        # cannot reach the option (e.g. the direct path).
        if stat is not None and stat.count >= 1:
            return self._from_history(stat, thin=True)
        return None

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
        return np.maximum(sem, _SEM_REL_FLOOR * np.abs(mean) + 1e-9)

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
