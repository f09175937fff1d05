"""The three network performance metrics the paper studies, and their algebra.

Every call in the dataset carries an (RTT, loss rate, jitter) triple averaged
over the call's duration (Section 2.1 of the paper).  :class:`PathMetrics`
is the value type used everywhere: ground-truth path means, per-call
samples, predictor outputs, and analysis aggregates.

Composition rules (used when stitching path segments together, both by the
ground-truth world and by the tomography module):

* **RTT** composes additively.
* **Loss rate** composes as ``1 - prod(1 - l_i)`` assuming independent
  segments; equivalently ``-log(1 - l)`` is additive.  The paper linearises
  loss the same way (Section 4.4, citing Castro et al.).
* **Jitter** is treated as additive, a standard linearisation for
  independent segment delay-variation contributions.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from repro._record import Record

__all__ = [
    "Metric",
    "METRICS",
    "PathMetrics",
    "loss_to_linear",
    "linear_to_loss",
    "compose_loss",
]

#: Metric names, in the order the paper always lists them.
METRICS: tuple[str, ...] = ("rtt_ms", "loss_rate", "jitter_ms")

#: Alias used in type annotations for readability.
Metric = str

_MAX_LOSS = 0.999999


def loss_to_linear(loss_rate: float) -> float:
    """Map a loss rate in ``[0, 1)`` to its additive (log-survival) form."""
    if loss_rate < 0.0:
        raise ValueError(f"loss rate must be non-negative: {loss_rate}")
    return -math.log1p(-min(loss_rate, _MAX_LOSS))


def linear_to_loss(linear: float) -> float:
    """Inverse of :func:`loss_to_linear`."""
    if linear < 0.0:
        raise ValueError(f"linearised loss must be non-negative: {linear}")
    return -math.expm1(-linear)


def compose_loss(loss_rates: Iterable[float]) -> float:
    """Compose independent per-segment loss rates into an end-to-end rate."""
    survival = 1.0
    for loss in loss_rates:
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss rate out of range: {loss}")
        survival *= 1.0 - loss
    return 1.0 - survival


class _PathMetricsFields(NamedTuple):
    rtt_ms: float
    loss_rate: float
    jitter_ms: float


class PathMetrics(Record, _PathMetricsFields):
    """An (RTT, loss, jitter) triple for one path or one call.

    Units match the paper: milliseconds for RTT and jitter, a fraction in
    ``[0, 1]`` for loss rate.  A validated, immutable tuple
    (:class:`~repro._record.Record`).
    """

    __slots__ = ()

    def __new__(cls, rtt_ms: float, loss_rate: float, jitter_ms: float) -> "PathMetrics":
        if rtt_ms < 0.0:
            raise ValueError(f"rtt_ms must be non-negative: {rtt_ms}")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1]: {loss_rate}")
        if jitter_ms < 0.0:
            raise ValueError(f"jitter_ms must be non-negative: {jitter_ms}")
        return tuple.__new__(cls, (rtt_ms, loss_rate, jitter_ms))

    def get(self, metric: Metric) -> float:
        """Return the value of one named metric (``rtt_ms`` etc.)."""
        if metric not in METRICS:
            raise KeyError(f"unknown metric {metric!r}; expected one of {METRICS}")
        return getattr(self, metric)

    def as_dict(self) -> dict[str, float]:
        return {"rtt_ms": self.rtt_ms, "loss_rate": self.loss_rate, "jitter_ms": self.jitter_ms}

    def scaled(self, rtt: float = 1.0, loss: float = 1.0, jitter: float = 1.0) -> "PathMetrics":
        """Return a copy with each metric scaled by the given factor.

        Loss is scaled in its linearised form so the result stays in
        ``[0, 1]`` for any non-negative factor.
        """
        return PathMetrics(
            rtt_ms=self.rtt_ms * rtt,
            loss_rate=linear_to_loss(loss_to_linear(self.loss_rate) * loss),
            jitter_ms=self.jitter_ms * jitter,
        )

    @staticmethod
    def compose(segments: Iterable["PathMetrics"]) -> "PathMetrics":
        """Stitch per-segment metrics into an end-to-end path metric."""
        rtt = 0.0
        jitter = 0.0
        survival = 1.0
        empty = True
        for seg in segments:
            empty = False
            rtt += seg.rtt_ms
            jitter += seg.jitter_ms
            survival *= 1.0 - seg.loss_rate
        if empty:
            raise ValueError("cannot compose an empty sequence of segments")
        return PathMetrics(rtt_ms=rtt, loss_rate=1.0 - survival, jitter_ms=jitter)
