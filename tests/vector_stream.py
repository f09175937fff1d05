"""A synthetic call stream for the scalar-vs-vector assignment paths.

A few ASes, so each chunk holds many calls per (pair, blocked) group; a
realistic menu (direct + sixteen bounce relays + four transits, 21
options); a trace inside one refresh period, so a run stays on the
per-call path rather than the period refresh both paths share; and a
metric triple per call drawn up front, so both paths observe identical
rows and neither samples a world.  ``tests/test_vector.py`` pins the two
paths equal on it, and ``scripts/ci_check.py`` times one against the
other (and builds its wire codec and WAL menus from :func:`options`).
"""

from __future__ import annotations

import numpy as np

from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.telephony.call import Call

__all__ = ["options", "inter_relay", "make_stream"]


def options(n_bounce: int = 16) -> list[RelayOption]:
    """Direct, ``n_bounce`` bounce relays and four transits."""
    menu: list[RelayOption] = [DIRECT]
    menu += [RelayOption.bounce(i) for i in range(1, n_bounce + 1)]
    menu += [
        RelayOption.transit(1, 2),
        RelayOption.transit(2, 1),
        RelayOption.transit(2, 3),
        RelayOption.transit(3, 2),
    ]
    return menu


def inter_relay(r1: int, r2: int) -> PathMetrics:
    """Deterministic, id-derived backbone metrics (tomography input)."""
    lo, hi = sorted((r1, r2))
    return PathMetrics(
        rtt_ms=5.0 + 3.0 * ((lo + hi) % 7),
        loss_rate=0.0005 * (1 + (lo * 7 + hi) % 3),
        jitter_ms=0.5 + 0.25 * ((lo * 3 + hi) % 4),
    )


def make_stream(
    *,
    n_calls: int,
    n_asns: int = 6,
    n_bounce: int = 16,
    seed: int = 2016,
    frac_direct_blocked: float = 0.05,
    t_span_hours: float = 18.0,
) -> tuple[list[Call], list[list[RelayOption]], list[PathMetrics]]:
    """Calls, the menu each is offered (relayed options only when direct is
    blocked) and the metrics each observes."""
    rng = np.random.default_rng(seed)
    menu = options(n_bounce)
    relayed = [o for o in menu if o.is_relayed]
    srcs = rng.integers(1, n_asns + 1, size=n_calls)
    dsts = rng.integers(1, n_asns + 1, size=n_calls)
    blocked = rng.random(n_calls) < frac_direct_blocked
    dt = rng.random(n_calls) * (2.0 * t_span_hours / n_calls)
    t_hours = np.cumsum(dt)
    triples = np.column_stack(
        (
            20.0 + 80.0 * rng.random(n_calls),
            0.002 * rng.random(n_calls),
            1.0 + 4.0 * rng.random(n_calls),
        )
    )
    calls: list[Call] = []
    options_per_call: list[list[RelayOption]] = []
    metrics: list[PathMetrics] = []
    for i in range(n_calls):
        calls.append(
            Call(
                call_id=i + 1,
                t_hours=float(t_hours[i]),
                src_asn=int(srcs[i]),
                dst_asn=int(dsts[i]),
                src_country="US",
                dst_country="US",
                src_user=int(srcs[i]) * 1000,
                dst_user=int(dsts[i]) * 1000 + 1,
                direct_blocked=bool(blocked[i]),
            )
        )
        options_per_call.append(relayed if blocked[i] else menu)
        metrics.append(
            PathMetrics(
                rtt_ms=float(triples[i, 0]),
                loss_rate=float(triples[i, 1]),
                jitter_ms=float(triples[i, 2]),
            )
        )
    return calls, options_per_call, metrics
