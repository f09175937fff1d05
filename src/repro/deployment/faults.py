"""Fault-injection harness for the deployment plane (chaos mode).

A :class:`FaultPlan` declares *what* goes wrong and *when*: connections
dropped mid-session, controller replies delayed, request windows in which
the controller blackholes (accepts but never answers), and relay outage
windows.  A :class:`FaultInjector` is the stateful executor the controller
consults per message; its RNG is seeded so a chaos experiment replays
identically.

The plan is shared with the world model: ``relay_outages`` both schedules
:class:`~repro.netmodel.options.RelayOutage` windows on the ``World`` (so
calls through a dead relay blackhole) and drives the controller's
down-relay set (so the policy repicks around the outage).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netmodel.options import RelayOutage

__all__ = ["FaultPlan", "FaultInjector", "RelayOutage"]


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Declarative chaos schedule for one deployment experiment.

    Rates are per *handled message*; time windows are in the experiment's
    ``t_hours`` call-clock (the same clock messages carry), so a plan is
    meaningful independently of wall-clock speed.
    """

    seed: int = 0
    #: P(abruptly close the client's connection after handling a message).
    drop_connection_rate: float = 0.0
    #: P(delay a reply by ``delay_reply_s`` before sending it).
    delay_reply_rate: float = 0.0
    delay_reply_s: float = 0.02
    #: ``t_hours`` windows during which requests get no reply at all.
    blackhole_windows: tuple[tuple[float, float], ...] = ()
    #: ``t_hours`` windows during which every request's policy service is
    #: deferred by ``stall_s`` wall seconds (a slow/overloaded policy; the
    #: deterministic way to drive out-of-order v2 completion in tests).
    #: Only the stalled request waits, so deadline sheds need a slow
    #: policy or a busy loop instead.
    stall_windows: tuple[tuple[float, float], ...] = ()
    stall_s: float = 0.05
    #: ``t_hours`` windows during which the admission plane force-sheds
    #: every request (simulated controller overload).
    overload_windows: tuple[tuple[float, float], ...] = ()
    #: Relays down for ``t_hours`` windows (kill-relay schedule).
    relay_outages: tuple[RelayOutage, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_connection_rate", "delay_reply_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {rate}")
        if self.delay_reply_s < 0.0:
            raise ValueError(f"delay_reply_s must be >= 0: {self.delay_reply_s}")
        if self.stall_s < 0.0:
            raise ValueError(f"stall_s must be >= 0: {self.stall_s}")
        for field in ("blackhole_windows", "stall_windows", "overload_windows"):
            for start, end in getattr(self, field):
                if end <= start:
                    raise ValueError(f"empty {field} window: [{start}, {end})")

    def blackholed_at(self, t_hours: float) -> bool:
        """Is the controller blackholing requests at ``t_hours``?"""
        return any(start <= t_hours < end for start, end in self.blackhole_windows)

    def stalled_at(self, t_hours: float) -> bool:
        """Is the policy stalling request service at ``t_hours``?"""
        return any(start <= t_hours < end for start, end in self.stall_windows)

    def overloaded_at(self, t_hours: float) -> bool:
        """Is the controller force-shedding (simulated overload)?"""
        return any(start <= t_hours < end for start, end in self.overload_windows)

    def relays_down_at(self, t_hours: float) -> frozenset[int]:
        """Relay ids with an active scheduled outage at ``t_hours``."""
        return frozenset(
            o.relay_id for o in self.relay_outages if o.active_at(t_hours)
        )


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan` (one per controller).

    Draws from a seeded RNG so the injected fault sequence is a pure
    function of the plan and the order of handled messages.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.n_dropped_connections = 0
        self.n_delayed_replies = 0
        self.n_blackholed_requests = 0
        self.n_stalled_requests = 0
        self.n_forced_overloads = 0

    @property
    def n_faults_injected(self) -> int:
        return (
            self.n_dropped_connections
            + self.n_delayed_replies
            + self.n_blackholed_requests
            + self.n_stalled_requests
            + self.n_forced_overloads
        )

    def should_drop_connection(self) -> bool:
        if self.plan.drop_connection_rate <= 0.0:
            return False
        if self._rng.random() < self.plan.drop_connection_rate:
            self.n_dropped_connections += 1
            return True
        return False

    def reply_delay_s(self) -> float:
        """Seconds to stall before replying (0.0 = no delay this time)."""
        if self.plan.delay_reply_rate <= 0.0:
            return 0.0
        if self._rng.random() < self.plan.delay_reply_rate:
            self.n_delayed_replies += 1
            return self.plan.delay_reply_s
        return 0.0

    def should_blackhole(self, t_hours: float) -> bool:
        if self.plan.blackholed_at(t_hours):
            self.n_blackholed_requests += 1
            return True
        return False

    def request_stall_s(self, t_hours: float) -> float:
        """Wall seconds to stall this request's policy service (0 = none)."""
        if self.plan.stalled_at(t_hours):
            self.n_stalled_requests += 1
            return self.plan.stall_s
        return 0.0

    def overloaded_at(self, t_hours: float) -> bool:
        """Force the admission plane into overload for this request?"""
        if self.plan.overloaded_at(t_hours):
            self.n_forced_overloads += 1
            return True
        return False
