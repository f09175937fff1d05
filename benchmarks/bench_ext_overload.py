"""Extension: offered-load sweep against the admission-controlled frontend.

Not a paper figure -- this benchmarks the robustness extension: the
asyncio controller's admission ladder under synthetic overload.  For
each offered-load level, a burst of logical clients (multiplexed over a
bounded set of pipelined v2 connections, the way thousands of agents
would share a handful of sockets) fires one assignment request each,
and the bench reports the client-observed p50/p99 latency and the shed rate.

The contract being measured (and asserted):

* **bounded tail** -- p99 stays bounded even at the most oversubscribed
  level, because excess work is shed immediately instead of queueing;
* **zero silent timeouts** -- every request resolves to an assign or an
  explicit shed; nobody burns a timeout budget learning nothing.

The latencies it prints are mostly the admission config's arithmetic
(a 2000/s token bucket), not the controller's speed, so nothing records
them; the ladder's speed is the ``wire_overload`` workload of ``perf/``.
"""

from __future__ import annotations

import asyncio
import statistics

import pytest

from _util import emit, once
from repro.core.policy import ViaConfig
from repro.deployment import AdmissionConfig, AsyncViaClient, ViaController
from repro.netmodel.options import RelayOption

OPTIONS = [RelayOption.bounce(0), RelayOption.bounce(1), RelayOption.transit(0, 1)]

#: Sockets the logical clients share (fd-limit friendly pipelining).
N_CONNECTIONS = 32
#: Per-request client-side timeout; anything hitting it is a *silent*
#: timeout, which the admission contract says must never happen.
SILENT_TIMEOUT_S = 30.0
#: Logical clients at the most oversubscribed level.
TOP_LOAD = 10_000

#: Admission tuning for the sweep: relay capacity worth ~512 immediate
#: admissions plus 2000/s refill, and a hard queue bound at 1024;
#: everything past that must degrade or shed.  Distinct (src, dst) pairs
#: keep the degrade cache cold, so the non-admitted tail is answered
#: with explicit sheds -- the light level sails through while the
#: oversubscribed levels shed most of their burst.
ADMISSION = AdmissionConfig(
    rate=2000.0,
    burst=512.0,
    max_queue_depth=1024,
    degrade_queue_depth=1024,
    queue_timeout_s=1.0,
)


async def _one_level(n_clients: int) -> dict:
    """Fire ``n_clients`` concurrent assignment requests at a fresh
    controller and summarise what came back."""
    async with ViaController(ViaConfig(seed=17), admission=ADMISSION) as controller:
        clients = [
            AsyncViaClient(conn, "US", "127.0.0.1", controller.port)
            for conn in range(N_CONNECTIONS)
        ]
        await asyncio.gather(*(c.connect() for c in clients))
        loop = asyncio.get_running_loop()

        async def one_call(logical_id: int) -> tuple[float, str]:
            client = clients[logical_id % N_CONNECTIONS]
            t0 = loop.time()
            try:
                result = await client.assign(
                    1,
                    OPTIONS,
                    t_hours=0.5,
                    src_id=logical_id + 10,
                    timeout=SILENT_TIMEOUT_S,
                )
            except (asyncio.TimeoutError, ConnectionError):
                return loop.time() - t0, "silent"
            return loop.time() - t0, "shed" if result.shed else "served"

        outcomes = await asyncio.gather(*(one_call(i) for i in range(n_clients)))
        await asyncio.gather(*(c.close() for c in clients))
        n_shed_server = controller.admission.n_shed
        n_degraded = controller.admission.n_degraded

    latencies = sorted(t for t, _ in outcomes)

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    counts = {kind: sum(1 for _, k in outcomes if k == kind) for kind in
              ("served", "shed", "silent")}
    return {
        "offered_clients": n_clients,
        "p50_ms": round(statistics.median(latencies) * 1000.0, 2),
        "p99_ms": round(pct(0.99) * 1000.0, 2),
        "served": counts["served"],
        "shed": counts["shed"],
        "silent_timeouts": counts["silent"],
        "shed_rate": round(counts["shed"] / n_clients, 4),
        "server_sheds": n_shed_server,
        "server_degraded": n_degraded,
    }


async def _sweep(levels: list[int]) -> list[dict]:
    return [await _one_level(n) for n in levels]


@pytest.mark.benchmark(group="ext_overload")
def test_ext_overload_sweep(benchmark):
    levels = [TOP_LOAD // 20, TOP_LOAD // 4, TOP_LOAD]

    rows = once(benchmark, lambda: asyncio.run(_sweep(levels)))

    header = (
        f"{'offered':>8} {'p50 ms':>8} {'p99 ms':>8} {'served':>7} "
        f"{'shed':>6} {'shed %':>7} {'silent':>7}"
    )
    lines = [header] + [
        f"{r['offered_clients']:>8} {r['p50_ms']:>8.2f} {r['p99_ms']:>8.2f} "
        f"{r['served']:>7} {r['shed']:>6} {100.0 * r['shed_rate']:>6.1f}% "
        f"{r['silent_timeouts']:>7}"
        for r in rows
    ]
    emit("ext_overload", "\n".join(lines))

    for row in rows:
        # The headline contract: every request got an explicit answer,
        # and the tail stayed bounded even when most work was shed.
        assert row["served"] + row["shed"] == row["offered_clients"]
        assert row["silent_timeouts"] == 0
        assert row["p99_ms"] <= 5000.0
        # Client-observed sheds are exactly the server's explicit sheds:
        # nothing was dropped on the floor in between.
        assert row["shed"] == row["server_sheds"]
        assert row["served"] >= 1

    overloaded = rows[-1]
    # At the top level the offered burst far exceeds the admissible rate:
    # the ladder must actually engage, and harder than at light load.
    assert overloaded["shed"] > 0
    assert overloaded["shed_rate"] >= 0.2
    assert rows[0]["shed_rate"] <= overloaded["shed_rate"]
