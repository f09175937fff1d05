"""The scalar decision path's per-call pieces, written in their array form.

``ViaPolicy._assign``/``_observe`` run four small computations per call or
per new pair state.  Production computes them on unboxed floats and caches
(``RunningStat.push``, ``budget.linear_quantile``,
``TomographyModel.predict``, ``_PairState.menus``); the forms here are what
those computations *mean*, written the obvious way on numpy, and
production must return the same bits (``tests/test_scalar_path.py``):

* :func:`reference_push` -- Welford's update on numpy scalars, metric by
  metric;
* :func:`reference_threshold` -- ``np.quantile`` over the benefit window;
* :func:`reference_stitch` -- path stitching on length-3 arrays;
* :func:`reference_normalize` -- a call's menu normalised option by option.
"""

from __future__ import annotations

import numpy as np

from repro.netmodel.metrics import linear_to_loss, loss_to_linear
from repro.netmodel.options import OptionKind

__all__ = [
    "reference_push",
    "reference_threshold",
    "reference_stitch",
    "reference_normalize",
]


def reference_push(stat, metrics) -> None:
    """Fold one call's metrics into ``stat`` (a ``RunningStat``) in place."""
    values = (metrics.rtt_ms, metrics.loss_rate, metrics.jitter_ms)
    stat.count += 1
    for i in range(3):
        delta = values[i] - stat._mean[i]
        stat._mean[i] += delta / stat.count
        stat._m2[i] += delta * (values[i] - stat._mean[i])


def reference_threshold(window, budget: float) -> float:
    """The §4.6 relay threshold: the (1 - B) quantile of the window."""
    with np.errstate(invalid="ignore"):  # inf - inf inside the lerp is NaN
        return float(np.quantile(np.asarray(window), 1.0 - budget))


def reference_stitch(model, side_s, side_d, option):
    """``TomographyModel.predict`` over its segment arrays, array-wise."""
    if option.kind is OptionKind.DIRECT:
        return None
    if option.kind is OptionKind.BOUNCE:
        ingress = egress = option.ingress
        inter_vec = np.zeros(3)
    else:
        ingress, egress = option.ingress, option.egress
        inter = model._inter_relay(ingress, egress)
        inter_vec = np.array(
            [inter.rtt_ms, loss_to_linear(inter.loss_rate), inter.jitter_ms]
        )
    seg_s = model._estimates.get((side_s, ingress))
    seg_d = model._estimates.get((side_d, egress))
    if seg_s is None or seg_d is None:
        return None
    sem_s = model._sems[(side_s, ingress)]
    sem_d = model._sems[(side_d, egress)]
    linear_mean = seg_s + seg_d + inter_vec
    mean = np.array(
        [linear_mean[0], linear_to_loss(float(linear_mean[1])), linear_mean[2]]
    )
    return mean, np.sqrt(sem_s**2 + sem_d**2)


def reference_normalize(view, options) -> list:
    """A call's menu in store orientation, normalised per call."""
    return [view.normalize(o) for o in options]
