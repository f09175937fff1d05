"""Columnar batch representation for the assignment hot path.

The scalar :class:`~repro.core.policy.ViaPolicy` walks one call at a time
through Python dicts; at controller scale that caps throughput far below
the hardware.  This module supplies the structure-of-arrays types and the
RNG bookkeeping that let :meth:`ViaPolicy.assign_many` /
:meth:`ViaPolicy.observe_many` score thousands of calls per vector op
while staying **bit-identical** to the scalar path:

* :class:`CallBatch` / :class:`MetricsBatch` -- numpy columns extracted
  once per batch (time, endpoints, blocked flags; metric triples), with
  the original row objects kept for scalar fallback paths.
* :func:`epsilon_explorations` -- draws the per-call ε coins in vectorised
  blocks while consuming the underlying PCG64 bitstream in **exactly** the
  order the scalar loop would (coin, coin, ..., exploration pick, coin,
  ...), by rewinding the generator state past each overshoot.

:class:`repro.verify.differential.VectorizedViaPolicy` routes scalar
``assign``/``observe`` through batches of one, so the differential harness
(:func:`repro.verify.differential.run_differential`) proves the vector
implementation against the scalar oracle call for call.

The equivalence contract (documented in ``docs/performance.md``):
``assign_many(calls, options)`` equals ``[assign(c, o) ...]`` with no
interleaved observes, and ``observe_many`` equals the same observes run
sequentially -- same choices, same RNG draw order, same post-state bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.netmodel.metrics import PathMetrics
from repro.telephony.call import Call

__all__ = [
    "CallBatch",
    "MetricsBatch",
    "epsilon_explorations",
]


@dataclass(slots=True)
class CallBatch:
    """Structure-of-arrays view of a call sequence.

    The columns cover exactly what the ``as``-granularity fast path needs
    (time, AS endpoints, NAT flags); ``calls`` keeps the row objects so
    ineligible configurations can fall back to the scalar loop without a
    round trip.
    """

    calls: list[Call]
    t_hours: np.ndarray
    src_asn: np.ndarray
    dst_asn: np.ndarray
    direct_blocked: np.ndarray

    @classmethod
    def from_calls(cls, calls) -> "CallBatch":
        rows = list(calls)
        n = len(rows)
        # map(attrgetter) iterates at C speed -- measurably faster than a
        # generator expression on hot-path batch sizes.
        return cls(
            calls=rows,
            t_hours=np.fromiter(
                map(attrgetter("t_hours"), rows), dtype=np.float64, count=n
            ),
            src_asn=np.fromiter(
                map(attrgetter("src_asn"), rows), dtype=np.int64, count=n
            ),
            dst_asn=np.fromiter(
                map(attrgetter("dst_asn"), rows), dtype=np.int64, count=n
            ),
            direct_blocked=np.fromiter(
                map(attrgetter("direct_blocked"), rows), dtype=bool, count=n
            ),
        )

    def __len__(self) -> int:
        return len(self.calls)


def as_call_batch(calls) -> CallBatch:
    """Coerce a call sequence (or an existing batch) to a :class:`CallBatch`."""
    if isinstance(calls, CallBatch):
        return calls
    return CallBatch.from_calls(calls)


@dataclass(slots=True)
class MetricsBatch:
    """Columnar (rtt, loss, jitter) triples for a batch of outcomes.

    ``values`` is an ``(n, 3)`` float64 matrix in :data:`METRICS` order.
    When built :meth:`from_metrics` the original :class:`PathMetrics` rows
    are retained so fallback paths observe the very same objects.
    """

    values: np.ndarray
    rows: list[PathMetrics] | None = None

    @classmethod
    def from_metrics(cls, metrics_list) -> "MetricsBatch":
        rows = list(metrics_list)
        values = np.array(
            [(m.rtt_ms, m.loss_rate, m.jitter_ms) for m in rows], dtype=np.float64
        ).reshape(len(rows), 3)
        return cls(values=values, rows=rows)

    def row(self, i: int) -> PathMetrics:
        """The ``i``-th triple as a :class:`PathMetrics` value."""
        if self.rows is not None:
            return self.rows[i]
        return PathMetrics(
            rtt_ms=float(self.values[i, 0]),
            loss_rate=float(self.values[i, 1]),
            jitter_ms=float(self.values[i, 2]),
        )

    def iter_rows(self):
        if self.rows is not None:
            return iter(self.rows)
        return (self.row(i) for i in range(len(self.values)))

    def __len__(self) -> int:
        return len(self.values)


def as_metrics_batch(metrics_list) -> MetricsBatch:
    """Coerce a metrics sequence (or an existing batch) to a :class:`MetricsBatch`."""
    if isinstance(metrics_list, MetricsBatch):
        return metrics_list
    return MetricsBatch.from_metrics(metrics_list)


def epsilon_explorations(
    rng: np.random.Generator, epsilon: float, lens: list[int]
) -> list[tuple[int, int]]:
    """ε-exploration draws for a batch, with scalar-identical RNG usage.

    The scalar loop draws, per call, one uniform coin (``rng.random()``)
    and -- when the coin lands under ``epsilon`` -- one bounded integer
    (``rng.integers(n_options)``).  This helper reproduces that draw
    sequence exactly while drawing the coins in vectorised blocks: it
    speculatively draws all remaining coins at once, and on the first
    exploration hit rewinds the generator (PCG64 state is copyable) and
    re-draws precisely the coins the scalar loop would have consumed up to
    and including the hit, then the hit's integer pick.

    Returns ``(batch_offset, option_index)`` pairs in batch order.  After
    the call the generator state equals the scalar loop's final state bit
    for bit (property-tested in ``tests/test_vector.py``).
    """
    n = len(lens)
    picks: list[tuple[int, int]] = []
    i = 0
    bit_generator = rng.bit_generator
    # Speculate in bounded blocks: a fully-missed block consumes exactly
    # its coins (no rewind needed), so the per-hit waste is capped at one
    # block instead of the whole remaining batch.
    block_cap = 512
    while i < n:
        block = min(n - i, block_cap)
        checkpoint = bit_generator.state
        coins = rng.random(block)
        hits = np.nonzero(coins < epsilon)[0]
        if hits.size == 0:
            i += block
            continue
        k = int(hits[0])
        # Rewind by restoring the checkpoint -- NOT via ``advance()``,
        # which would drop the generator's buffered uint32 half-word and
        # desynchronise the next bounded-integer draw -- then consume
        # exactly what the scalar loop would have: k + 1 coins (the misses
        # plus the hit), then the bounded pick.
        bit_generator.state = checkpoint
        rng.random(k + 1)
        picks.append((i + k, int(rng.integers(lens[i + k]))))
        i += k + 1
    return picks
