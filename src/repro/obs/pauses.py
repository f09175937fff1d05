"""Garbage-collection pauses, timed by generation.

A collection stops every thread for as long as it scans, so on a serving
controller it is a pause in the loop: the collector's half of the pause
ledger.  One process-wide ``gc.callbacks`` hook times each collection and
feeds every attached :class:`GcPauses`, one per metrics registry, however
many controllers share it.  Per generation, each keeps four series:

* ``via_gc_collections_total`` -- collections;
* ``via_gc_pause_seconds_total`` -- seconds spent in them;
* ``via_gc_pause_max_seconds`` -- the longest one;
* ``via_gc_slow_pauses_total`` -- those over :data:`SLOW_PAUSE_S`.

The hook is installed while any ledger is attached and removed with the
last one, so a process that serves nothing pays nothing.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = ["GENERATIONS", "SLOW_PAUSE_S", "GcPauses"]

#: A collection longer than this counts as slow: the 5 ms SLO of the
#: benchmark's unloaded wire workload, where one pause misses it.
SLOW_PAUSE_S = 0.005

GENERATIONS = (0, 1, 2)

#: id(registry) -> [the ledger feeding it, attachments]: two controllers
#: on one registry attach twice but count each collection once.
_ATTACHED: dict[int, list] = {}
_started = 0.0


def _on_gc(phase: str, info: dict[str, Any]) -> None:
    global _started
    if phase == "start":
        _started = perf_counter()
        return
    seconds = perf_counter() - _started
    generation = info["generation"]
    for ledger, _count in _ATTACHED.values():
        ledger.record(generation, seconds)


class GcPauses:
    """The collector's pauses on one registry, fed while attached."""

    def __init__(self, registry: MetricsRegistry) -> None:
        label = ("generation",)
        collections = registry.counter(
            "via_gc_collections_total", "Garbage collections, by generation.", label
        )
        seconds = registry.counter(
            "via_gc_pause_seconds_total",
            "Seconds spent in garbage collections, by generation.",
            label,
        )
        longest = registry.gauge(
            "via_gc_pause_max_seconds",
            "Longest garbage collection seen, by generation.",
            label,
        )
        slow = registry.counter(
            "via_gc_slow_pauses_total",
            f"Garbage collections longer than {SLOW_PAUSE_S * 1e3:g} ms, by generation.",
            label,
        )
        self._registry = registry
        self._series = {
            g: tuple(m.labels(generation=str(g)) for m in (collections, seconds, longest, slow))
            for g in GENERATIONS
        }

    def record(self, generation: int, seconds: float) -> None:
        """Count one collection of ``generation`` that took ``seconds``."""
        collections, total, longest, slow = self._series[generation]
        collections.inc()
        total.inc(seconds)
        if seconds > longest.value:
            longest.set(seconds)
        if seconds > SLOW_PAUSE_S:
            slow.inc()

    def attach(self) -> None:
        """Start counting every collection in the process."""
        if not _ATTACHED:
            gc.callbacks.append(_on_gc)
        _ATTACHED.setdefault(id(self._registry), [self, 0])[1] += 1

    def detach(self) -> None:
        """Undo one :meth:`attach`; the last one out removes the hook."""
        key = id(self._registry)
        entry = _ATTACHED[key]
        entry[1] -= 1
        if entry[1] == 0:
            del _ATTACHED[key]
            if not _ATTACHED:
                gc.callbacks.remove(_on_gc)

    def by_generation(self) -> dict[int, dict[str, float]]:
        """The four series per generation, as numbers."""
        return {
            g: {
                "collections": int(collections.value),
                "seconds": total.value,
                "max_seconds": longest.value,
                "slow": int(slow.value),
            }
            for g, (collections, total, longest, slow) in self._series.items()
        }
