"""Profiling hook: ``@timed`` histogram feeds.

``@timed`` is the low-ceremony instrument for functions that matter but do
not deserve hand-written spans: it feeds a latency histogram on the
default registry, keyed by a stable name, and costs a single flag check
when observability is disabled::

    @timed("predictor.predict_all")
    def predict_all(self, ...):
        ...

The registry tells you *that* a stage is slow; for *why*, run the code
under cProfile (``docs/performance.md``, *Where speed is measured*).
"""

from __future__ import annotations

from functools import wraps
from time import perf_counter
from typing import Any, Callable, TypeVar

from repro.obs import runtime
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["timed"]

F = TypeVar("F", bound=Callable[..., Any])


def timed(
    name: str, *, registry: MetricsRegistry | None = None
) -> Callable[[F], F]:
    """Decorate a callable to feed ``via_timed_seconds{func=name}``.

    The histogram is registered at decoration time (so it shows up in
    scrapes even before the first call); observation only happens while
    :mod:`repro.obs.runtime` is enabled.
    """
    histogram = (registry or REGISTRY).histogram(
        "via_timed_seconds",
        "Wall time of @timed functions, by function name.",
        ("func",),
    )

    def decorate(fn: F) -> F:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not runtime.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                histogram.labels(func=name).observe(perf_counter() - t0)

        return wrapper  # type: ignore[return-value]

    return decorate
