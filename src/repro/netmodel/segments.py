"""Per-segment ground-truth performance processes.

A path in the synthetic world is a chain of *segments*:

* ``ACCESS(asn)`` -- the last mile of one AS,
* ``WAN(asn, relay)`` -- the public-Internet path between an AS and a
  managed relay (well-peered, moderate inflation),
* ``INTER(r1, r2)`` -- the private backbone between two relays,
* ``DIRECT(as1, as2)`` -- the BGP default path between two ASes (the most
  variable: heavy-tailed inflation, strongest regime dynamics).

Each segment owns a static base :class:`~repro.netmodel.metrics.PathMetrics`
triple, a daily :class:`~repro.netmodel.dynamics.RegimeProcess`, and
per-call multiplicative noise.  Ground truth composes additively across
segments (loss in the linearised domain), which is exactly the structure
VIA's tomography assumes -- so tomography *can* be accurate here, and its
residual error comes from sampling noise and regime shifts, as in the paper
(§5.3: 71% of predictions within 20%, 14% off by >=50%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.netmodel.dynamics import RegimeProcess, diurnal_factor
from repro.netmodel.metrics import PathMetrics, linear_to_loss, loss_to_linear

__all__ = ["NoiseConfig", "SegmentModel", "lognormal_unit_mean"]


def lognormal_unit_mean(rng: np.random.Generator, sigma: float) -> float:
    """Draw a lognormal factor with mean exactly 1.

    Using ``mu = -sigma^2 / 2`` keeps ``E[factor] = 1`` so that per-call
    noise does not bias daily means -- the oracle's "true mean" then equals
    the composition of segment day-means.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0: {sigma}")
    if sigma == 0.0:
        return 1.0
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


@dataclass(frozen=True, slots=True)
class NoiseConfig:
    """Per-call multiplicative noise scales (lognormal sigma per metric).

    Loss noise applies in the linearised domain.  These are the "inherent
    variability" of §4.2 that makes pure prediction and pure exploration
    both fail; the replay's sampling semantics draw fresh noise per call.
    """

    rtt_sigma: float = 0.18
    loss_sigma: float = 0.65
    jitter_sigma: float = 0.40

    def __post_init__(self) -> None:
        for name in ("rtt_sigma", "loss_sigma", "jitter_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(slots=True)
class SegmentModel:
    """Ground truth for one network segment.

    ``base`` holds the long-run GOOD-state performance; the regime process
    modulates it day by day; ``noise`` adds per-call variation; the diurnal
    curve adds a mild time-of-day tilt.

    Construction compiles the segment once (treat it as immutable after):
    a regime has three states, so a day's mean is one of three shared
    :class:`PathMetrics`, kept in ``table`` beside the plain floats that
    :meth:`World.sample_path <repro.netmodel.world.World.sample_path>`
    reads per call.
    """

    name: str
    base: PathMetrics
    regime: RegimeProcess
    noise: NoiseConfig
    diurnal_amplitude: float = 0.08
    #: ``(day_rows, diurnal_amplitude, rtt_floor, rtt_mu, rtt_sigma,
    #: loss_mu, loss_sigma, jitter_mu, jitter_sigma)``: ``day_rows[day]`` is
    #: ``(mean, mean rtt_ms, mean linearised loss, mean jitter_ms)`` and
    #: each ``mu`` is the unit-mean ``-sigma^2 / 2``.
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        diurnal_factor(0.0, amplitude=self.diurnal_amplitude)  # range check
        by_state: dict[int, tuple] = {}
        day_rows = []
        for day in range(self.regime.n_days):
            state = self.regime.state_on(day)
            if state not in by_state:
                rtt_mult, loss_mult, jitter_mult = self.regime.multipliers_on(day)
                mean = PathMetrics(
                    rtt_ms=self.base.rtt_ms * rtt_mult,
                    loss_rate=linear_to_loss(loss_to_linear(self.base.loss_rate) * loss_mult),
                    jitter_ms=self.base.jitter_ms * jitter_mult,
                )
                by_state[state] = (
                    mean, mean.rtt_ms, loss_to_linear(mean.loss_rate), mean.jitter_ms
                )
            day_rows.append(by_state[state])
        noise = self.noise
        self.table = (
            tuple(day_rows),
            self.diurnal_amplitude,
            0.8 * self.base.rtt_ms,
            *(
                term
                for sigma in (noise.rtt_sigma, noise.loss_sigma, noise.jitter_sigma)
                for term in (-0.5 * sigma * sigma, sigma)
            ),
        )

    def mean_on_day(self, day: int) -> PathMetrics:
        """The true mean performance of this segment on ``day`` (clamped to
        the final day beyond the regime horizon)."""
        if day < 0:
            raise ValueError(f"day must be >= 0: {day}")
        day_rows = self.table[0]
        return (day_rows[day] if day < len(day_rows) else day_rows[-1])[0]

    def sample(self, t_hours: float, rng: np.random.Generator) -> PathMetrics:
        """Draw one call's realised performance over this segment.

        The sample is the day mean, tilted by the diurnal curve and
        perturbed by unit-mean lognormal noise.  RTT keeps a physical
        floor: noise cannot push it below the base (propagation) value
        by more than 20%.

        This defines a segment's draw (in order rtt, loss, jitter; none for
        a zero sigma); ``World.sample_path`` computes it from ``table``.
        """
        day = int(t_hours // 24.0)
        mean = self.mean_on_day(day)
        load = diurnal_factor(t_hours, amplitude=self.diurnal_amplitude)
        rtt = mean.rtt_ms * load * lognormal_unit_mean(rng, self.noise.rtt_sigma)
        rtt = max(rtt, 0.8 * self.base.rtt_ms)
        loss_linear = (
            loss_to_linear(mean.loss_rate) * load * lognormal_unit_mean(rng, self.noise.loss_sigma)
        )
        jitter = mean.jitter_ms * load * lognormal_unit_mean(rng, self.noise.jitter_sigma)
        return PathMetrics(
            rtt_ms=rtt,
            loss_rate=linear_to_loss(loss_linear),
            jitter_ms=jitter,
        )

    def mean_over_days(self, start_day: int, end_day: int) -> PathMetrics:
        """Average true mean over ``[start_day, end_day)`` (for reporting)."""
        if end_day <= start_day:
            raise ValueError("end_day must be > start_day")
        days = range(start_day, end_day)
        rtt = 0.0
        loss_linear = 0.0
        jitter = 0.0
        for day in days:
            mean = self.mean_on_day(day)
            rtt += mean.rtt_ms
            loss_linear += loss_to_linear(mean.loss_rate)
            jitter += mean.jitter_ms
        n = float(len(days))
        return PathMetrics(
            rtt_ms=rtt / n,
            loss_rate=linear_to_loss(loss_linear / n),
            jitter_ms=jitter / n,
        )


def heavy_tailed_inflation(
    rng: np.random.Generator, median: float, sigma: float, floor: float = 1.02
) -> float:
    """Draw a BGP path-inflation factor (lognormal body, heavy right tail).

    ``median`` is the typical stretch over the great-circle propagation
    delay; ``sigma`` widens the tail.  A small fraction of pairs end up
    with 3-6x inflation -- the circuitous default routes that make
    relaying worthwhile (§2.3).
    """
    if median < 1.0:
        raise ValueError(f"median inflation must be >= 1: {median}")
    value = median * math.exp(float(rng.normal(0.0, sigma)))
    return max(floor, value)
