"""Machine-speed calibration: a fixed kernel timed next to every segment.

The reference box is a two-vCPU VM whose speed moves by +-30% on a scale
of seconds to minutes (no steal time shows; the neighbours on the host's
sibling threads do it).  A ten-second window measured raw therefore
spreads by 25% run to run, wider than any regression bound worth having.
What *does* repeat is the ratio between the program's speed and the speed
of a fixed piece of interpreter work measured within the same second:
over 24 ten-second windows the raw median moved by 25%, the ratio by 1.5%.

So every measured segment is bracketed by two short runs of the kernel
below, and every CPU-bound time is reported **at reference speed**::

    reported = measured * speed_factor
    speed_factor = kernel speed around the segment / REFERENCE_SPEED

``REFERENCE_SPEED`` is this kernel's speed on the reference box in its
fast state, so on a quiet box reported and measured agree.  Raw values
and the factors are kept in each run's detail file.  Rates set by a
clock rather than by the CPU (the open loop's admitted calls per second)
and every count, share and size are reported as measured.
"""

from __future__ import annotations

import json
from time import perf_counter

__all__ = ["REFERENCE_SPEED", "KERNEL_SECONDS", "kernel_speed", "speed_factor"]

#: Kernel iterations per second on the reference box's fast state.
REFERENCE_SPEED = 40_000.0
#: How long one calibration burst runs.
KERNEL_SECONDS = 0.06

_PAYLOAD = {
    "type": "request",
    "src_id": 17,
    "dst_id": 42,
    "t_hours": 36.0,
    "options": [{"kind": "bounce", "ingress": i, "egress": i} for i in range(20)],
}


def kernel_speed(seconds: float = KERNEL_SECONDS) -> float:
    """Iterations per second of the fixed kernel: a JSON round trip of a
    request-sized object plus a short interpreter loop -- the instruction
    mix of the program's own hot path."""
    dumps, loads, payload = json.dumps, json.loads, _PAYLOAD
    n = 0
    t0 = perf_counter()
    while True:
        for _ in range(10):
            loads(dumps(payload))
            sum(i * i for i in range(50))
        n += 10
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


def speed_factor(*speeds: float) -> float:
    """Mean kernel speed of the bursts around a segment, over the reference."""
    return sum(speeds) / (len(speeds) * REFERENCE_SPEED)
