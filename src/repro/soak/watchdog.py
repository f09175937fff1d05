"""Invariant watchdogs: trend lines that must not grow without bound.

The failures a soak exists to catch -- object leaks, fd leaks, WAL
segment pile-up, metric-cardinality creep -- all share one signature: a
resource line that climbs monotonically for as long as you let it run.
Any single sample is meaningless (RSS jitters, gc counts breathe), so
the watchdog applies a *windowed slope test* over the trailing
``window_samples`` observations of each line:

a line is violated only when, over the window, **all three** hold:

* the least-squares slope exceeds the line's ``max_slope_per_sample``;
* the absolute growth (last - first) clears ``min_growth`` (so noise on
  a flat line can never trip the gate); and
* at least ``min_monotonic_frac`` of the window's steps were increases
  (a leak climbs relentlessly; a healthy sawtooth -- WAL segments
  between compactions -- goes down as often as up).

Samplers here are deliberately stdlib-only: ``resource.getrusage`` for
RSS (a high-watermark: it plateaus for healthy processes and keeps
climbing for leaky ones), ``gc`` for the live object census (collected
first, so floating garbage doesn't masquerade as a leak), and
``/proc/self/fd`` for open descriptors.
"""

from __future__ import annotations

import gc
import os
import resource
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_INVARIANTS",
    "InvariantSpec",
    "TrendWatchdog",
    "sample_gc_objects",
    "sample_open_fds",
    "sample_rss_kb",
]


@dataclass(frozen=True, slots=True)
class InvariantSpec:
    """One trend line's no-unbounded-growth contract."""

    #: Trend-line name (also the ``invariant`` field in report failures).
    name: str
    help: str
    #: Least-squares slope ceiling, in the line's unit per sample.
    max_slope_per_sample: float
    #: Absolute growth floor across the window; below it, never violated.
    min_growth: float
    #: Fraction of window steps that must be increases to count as
    #: monotonic growth (leaks climb; healthy sawtooths oscillate).
    min_monotonic_frac: float = 0.6


#: The five mandated lines, with thresholds sized for the smoke budget's
#: sampling cadence and generous enough that a healthy controller under
#: chaos never grazes them (see docs/soak.md for the calibration).
DEFAULT_INVARIANTS: tuple[InvariantSpec, ...] = (
    InvariantSpec(
        name="rss_kb",
        help="resident-set high watermark (resource.getrusage, KiB)",
        max_slope_per_sample=512.0,
        min_growth=16_384.0,
    ),
    InvariantSpec(
        name="gc_objects",
        help="live tracked objects after gc.collect()",
        max_slope_per_sample=400.0,
        min_growth=8_000.0,
    ),
    InvariantSpec(
        name="open_fds",
        help="open file descriptors (/proc/self/fd)",
        max_slope_per_sample=0.5,
        min_growth=8.0,
    ),
    InvariantSpec(
        name="wal_segments",
        help="WAL segment files on disk across every soaked store",
        max_slope_per_sample=0.75,
        min_growth=12.0,
    ),
    InvariantSpec(
        name="metric_series",
        help="label series across every soaked metrics registry",
        max_slope_per_sample=3.0,
        min_growth=60.0,
    ),
)


def sample_rss_kb() -> float:
    """Peak resident set in KiB (``ru_maxrss`` is KiB on Linux)."""
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def sample_gc_objects() -> float:
    """Live tracked objects, with floating garbage collected away first.

    ``gc.get_objects()`` skips the permanent generation, so the frozen
    objects are added back: a leak that a serving controller froze
    (``gc.freeze()``) still shows on the line."""
    gc.collect()
    return float(len(gc.get_objects()) + gc.get_freeze_count())


def sample_open_fds() -> float:
    """Open descriptor count; -1 when the platform offers no cheap census
    (the watchdog skips lines that never produce a valid sample)."""
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            return float(len(os.listdir(fd_dir)))
        except OSError:
            continue
    return -1.0


def _least_squares_slope(values: list[float]) -> float:
    """Slope of the best-fit line through (0, v0), (1, v1), ... ."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den if den else 0.0


@dataclass(slots=True)
class TrendWatchdog:
    """Collects per-line samples and renders windowed-slope verdicts."""

    specs: tuple[InvariantSpec, ...] = DEFAULT_INVARIANTS
    window_samples: int = 20
    series: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for spec in self.specs:
            self.series.setdefault(spec.name, [])

    def record(self, name: str, value: float) -> None:
        """Append one sample; negative values mean "sampler unavailable"
        and are dropped so a platform gap never fakes a trend."""
        if value >= 0.0:
            self.series.setdefault(name, []).append(float(value))

    def n_samples(self, name: str) -> int:
        return len(self.series.get(name, ()))

    def evaluate(self) -> list[dict]:
        """One verdict dict per spec over its trailing window.

        A line with fewer than four samples renders an informational
        verdict (``enough_data: false``) that can never be violated --
        a truncated run must not fail on the lines it barely sampled.
        """
        verdicts: list[dict] = []
        for spec in self.specs:
            window = self.series.get(spec.name, [])[-self.window_samples :]
            n = len(window)
            if n < 4:
                verdicts.append(
                    {
                        "invariant": spec.name,
                        "enough_data": False,
                        "n_samples": n,
                        "violated": False,
                    }
                )
                continue
            slope = _least_squares_slope(window)
            growth = window[-1] - window[0]
            steps = [b - a for a, b in zip(window, window[1:])]
            monotonic_frac = sum(1 for s in steps if s > 0) / len(steps)
            violated = (
                slope > spec.max_slope_per_sample
                and growth >= spec.min_growth
                and monotonic_frac >= spec.min_monotonic_frac
            )
            verdicts.append(
                {
                    "invariant": spec.name,
                    "enough_data": True,
                    "n_samples": n,
                    "first": window[0],
                    "last": window[-1],
                    "growth": growth,
                    "slope_per_sample": slope,
                    "monotonic_frac": monotonic_frac,
                    "max_slope_per_sample": spec.max_slope_per_sample,
                    "min_growth": spec.min_growth,
                    "min_monotonic_frac": spec.min_monotonic_frac,
                    "violated": violated,
                }
            )
        return verdicts
