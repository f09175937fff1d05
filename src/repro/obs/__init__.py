"""Observability plane: metrics registry, call-path tracing, profiling.

The paper operates VIA as a measured production service -- PCR deltas and
99th-percentile setup latencies (§7) presuppose continuous
instrumentation.  This package is the reproduction's equivalent, and it is
deliberately dependency-free (stdlib only):

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` with
  Counter/Gauge/Histogram instruments, label sets, snapshots and the
  Prometheus text exposition format,
* :mod:`repro.obs.tracing` -- nested wall-time spans
  (``with trace("assign"): ...``) exported through a bounded ring buffer,
* :mod:`repro.obs.profiling` -- the ``@timed`` histogram decorator,
* :mod:`repro.obs.runtime` -- the global enable/disable switch; everything
  gated on it costs one flag check when off.

Quickstart::

    from repro import obs

    obs.enable()
    result = replay(world, trace, policy)        # spans + histograms fill in
    print(obs.REGISTRY.render_text())            # Prometheus exposition
    print(obs.TRACER.render_text(limit=20))      # recent span tree
    obs.disable()

See ``docs/observability.md`` for metric names, label conventions and the
controller scrape protocol.
"""

from repro.obs import runtime
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    DEFAULT_LATENCY_BUCKETS,
)
from repro.obs.profiling import timed
from repro.obs.runtime import disable, enable, enabled_scope
from repro.obs.tracing import Span, TRACER, Tracer, trace

__all__ = [
    "runtime",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "Span",
    "Tracer",
    "TRACER",
    "trace",
    "timed",
    "enable",
    "disable",
    "enabled_scope",
]
