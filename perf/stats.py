"""Small statistics helpers shared by the harness, the compare tool and the tests.

Kept dependency-free (no numpy) so ``compare.py`` runs anywhere and the
helpers can be tested on known data without importing the program under
test.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

__all__ = ["percentile", "median", "quartiles"]


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics -- the same rule as ``numpy.percentile``'s default."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100]: {q}")
    rank = (len(data) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them
    -- the rule the acceptance driver uses for run-to-run spread.  A single
    value is its own quartiles (spread 0)."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)
