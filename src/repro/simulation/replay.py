"""Chronological trace replay against one policy.

Implements the simulation semantics of §5.1: calls are replayed in trace
order; when a policy assigns call *c* to option *r*, its realised
performance is a fresh draw from the ground-truth distribution of
(*c*'s pair, *r*, *c*'s day) -- equivalent to sampling a random call from
the same pair/option/window.  The policy then observes that outcome, so it
"gains knowledge as it goes along".
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field

import numpy as np

from repro._heap import long_lived
from repro.core.hybrid import blend_call_metrics
from repro.core.multipath import combined_metrics
from repro.core.policy import SelectionPolicy
from repro.netmodel.metrics import METRICS
from repro.netmodel.world import World
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import REGISTRY
from repro.telephony.call import CallOutcome
from repro.telephony.quality import QualityModel
from repro.workload.trace import TraceDataset

#: Replay progress instruments on the default registry.  Fed only while
#: observability is enabled; an operator watching a long replay sees the
#: current epoch (24 h day), calls done, and the completed fraction.
_G_DAY = REGISTRY.gauge(
    "via_replay_day", "Trace day (24 h epoch) the replay is currently in."
)
_G_CALLS = REGISTRY.gauge(
    "via_replay_calls_done", "Calls replayed so far in the current replay."
)
_G_FRACTION = REGISTRY.gauge(
    "via_replay_progress_fraction", "Completed fraction of the current replay."
)
_C_CALLS = REGISTRY.counter(
    "via_replay_calls_total", "Calls replayed across all replays, by policy.",
    ("policy",),
)

__all__ = ["ReplayResult", "replay"]

logger = logging.getLogger(__name__)

#: Policy names already warned about a silent batch→scalar fallback, so a
#: grid of replays logs each offender once instead of once per task.
_WARNED_NO_BATCH_API: set[str] = set()


@dataclass(slots=True)
class ReplayResult:
    """Outcomes of one (policy, trace) replay plus bookkeeping."""

    policy_name: str
    outcomes: list[CallOutcome] = field(default_factory=list)
    #: Per-outcome flag: was any relay outage active when the call ran?
    #: Empty when the world had no scheduled outages.
    outage_flags: list[bool] = field(default_factory=list)
    #: Calls that were actually assigned to an option riding a down relay.
    #: For multipath calls this means *both* paths were down.
    n_dead_assignments: int = 0
    #: Multipath calls that lost exactly one of their two paths to an
    #: outage: still connected, but degraded (duplicated calls keep the
    #: surviving path's quality; split calls lose that path's share).
    n_degraded_assignments: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def n_outage_calls(self) -> int:
        """Calls placed while at least one relay outage was active."""
        return sum(self.outage_flags)

    def outage_degradation(self, metric: str) -> dict[str, float] | None:
        """Mean ``metric`` during vs outside outage windows.

        Returns ``{"during": ..., "outside": ..., "ratio": ...}`` or None
        when the replay saw no outage window (or no calls on one side).
        """
        if metric not in METRICS:
            raise KeyError(
                f"unknown metric {metric!r}; valid metrics: {', '.join(METRICS)}"
            )
        if not self.outage_flags:
            return None
        during = [
            o.metrics.get(metric)
            for o, flagged in zip(self.outcomes, self.outage_flags)
            if flagged
        ]
        outside = [
            o.metrics.get(metric)
            for o, flagged in zip(self.outcomes, self.outage_flags)
            if not flagged
        ]
        if not during or not outside:
            return None
        mean_during = float(np.mean(during))
        mean_outside = float(np.mean(outside))
        return {
            "during": mean_during,
            "outside": mean_outside,
            "ratio": mean_during / max(mean_outside, 1e-12),
        }

    @property
    def relayed_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.option.is_relayed for o in self.outcomes) / len(self.outcomes)

    def option_mix(self) -> dict[str, float]:
        """Fraction of calls per option kind (the §5.2 relay-mix numbers)."""
        if not self.outcomes:
            return {}
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            kind = outcome.option.kind.value
            counts[kind] = counts.get(kind, 0) + 1
        total = len(self.outcomes)
        return {kind: count / total for kind, count in counts.items()}


def replay(
    world: World,
    trace: TraceDataset,
    policy: SelectionPolicy,
    *,
    seed: int = 0,
    quality: QualityModel | None = None,
    batch_calls: int = 1,
) -> ReplayResult:
    """Replay ``trace`` through ``policy`` on ``world``.

    ``quality`` optionally samples user ratings for a fraction of calls
    (used by the PCR analyses); pass ``QualityModel(rating_fraction=...)``.

    The trace is walked in chunks of up to ``batch_calls`` calls, trimmed
    at relay-outage boundaries.  A chunk of several calls goes through the
    policy's vectorised ``assign_many``/``observe_many``: the policy
    assigns every call before observing any outcome, so learning feedback
    is delayed by up to one chunk relative to the serial interleaving --
    the documented batch-semantics trade-off (``docs/performance.md``).
    A chunk of one goes through the scalar entry points -- ``assign``/
    ``observe``, ``assign_paths``/``observe_paths`` for a multipath policy,
    or the ``plan_probe``/``commit_probe`` exchange for a hybrid one -- so
    ``batch_calls=1`` is the serial §5.1 replay.  Multipath and probing
    policies, and policies without a batch interface, run in chunks of
    one whatever ``batch_calls`` says.

    The outcome RNG is derived from ``seed`` only, so two policies replayed
    with the same seed face identical noise *processes* (though different
    assignment sequences consume draws differently).

    The loop runs inside :func:`repro._heap.long_lived`: what is alive on
    entry leaves the collector's scans until the replay returns.
    """
    if batch_calls < 1:
        raise ValueError(f"batch_calls must be >= 1: {batch_calls}")
    rng = np.random.default_rng(seed)
    result = ReplayResult(policy_name=policy.name)
    outcomes = result.outcomes
    assign_paths = getattr(policy, "assign_paths", None)
    plan_probe = getattr(policy, "plan_probe", None)
    if batch_calls > 1:
        if assign_paths is not None or plan_probe is not None:
            batch_calls = 1
        elif not (hasattr(policy, "assign_many") and hasattr(policy, "observe_many")):
            # The caller asked for the batch hot path but this policy cannot
            # serve it; say so once rather than silently running ~15x slower.
            if policy.name not in _WARNED_NO_BATCH_API:
                _WARNED_NO_BATCH_API.add(policy.name)
                logger.info(
                    "replay(batch_calls=%d): policy %s has no assign_many/"
                    "observe_many; falling back to chunks of one",
                    batch_calls,
                    policy.name,
                )
            batch_calls = 1
    # Relay outages: keep the policy's down-relay set in sync with the
    # world's schedule, and flag every outcome that ran during a window.
    outages = tuple(getattr(world, "outages", ()))
    set_down = getattr(policy, "set_down_relays", None) if outages else None
    last_down: frozenset[int] | None = None
    down: frozenset[int] = frozenset()
    obs_calls = _C_CALLS.labels(policy=policy.name)
    last_day = -1

    def book(call, paths, metrics) -> None:
        """Record one call that rode ``paths`` (one option, or a multipath
        policy's two) and realised ``metrics``."""
        if outages:
            # A call is dead when every path it rides is on a down relay
            # and degraded when only some are: a single-path call
            # (including a probed call's winner) can only be dead.  ``down``
            # is the chunk's set, which holds for every call in the chunk.
            n_up = 0
            for path in paths:
                n_up += down.isdisjoint(path.relay_ids())
            if n_up == 0:
                result.n_dead_assignments += 1
            elif n_up < len(paths):
                result.n_degraded_assignments += 1
        rating = quality.maybe_rate(metrics, rng) if quality is not None else None
        outcomes.append(
            CallOutcome(call=call, option=paths[0], metrics=metrics, rating=rating)
        )

    calls = list(trace)
    n = len(calls)
    i = 0
    with long_lived():
        while i < n:
            call = calls[i]
            j = min(i + batch_calls, n)
            if outages:
                # Trim the chunk at the first outage transition so one
                # ``set_down_relays`` call covers every call in it.
                down = world.relays_down_at(call.t_hours)
                k = i + 1
                while k < j and world.relays_down_at(calls[k].t_hours) == down:
                    k += 1
                j = k
                if set_down is not None and down != last_down:
                    set_down(down)
                    last_down = down
                result.outage_flags.extend([bool(down)] * (j - i))
            if obs_runtime.enabled:
                day = int(call.t_hours // 24.0)
                if day != last_day:
                    _G_DAY.set(day)
                    last_day = day
                _G_CALLS.set(i)
                _G_FRACTION.set(i / n)
                obs_calls.inc(j - i)
            if j - i > 1:
                chunk = calls[i:j]
                choices = policy.assign_many(chunk, [_menu(world, c) for c in chunk])
                rows = []
                for member, option in zip(chunk, choices):
                    # Sample, then rate, call by call: rating the chunk after
                    # sampling it would reorder the outcome RNG's draws.
                    metrics = _sample(world, member, option, rng)
                    rows.append(metrics)
                    book(member, (option,), metrics)
                policy.observe_many(chunk, choices, rows)
            else:
                # A chunk of one takes the scalar entry points, not
                # ``assign_many`` of one, which costs several times as much.
                options = _menu(world, call)
                plan = plan_probe(call, options) if plan_probe is not None else None
                if assign_paths is not None:
                    paths, metrics = _multipath_call(world, policy, call, options, rng)
                elif plan is not None:
                    paths, metrics = _probed_call(world, policy, call, plan, rng)
                else:
                    option = policy.assign(call, options)
                    metrics = _sample(world, call, option, rng)
                    policy.observe(call, option, metrics)
                    paths = (option,)
                book(call, paths, metrics)
            i = j
    if obs_runtime.enabled:
        _G_CALLS.set(n)
        _G_FRACTION.set(1.0)
    return result


def _menu(world: World, call):
    """The options on the table for ``call``."""
    options = world.options_for_pair(call.src_asn, call.dst_asn)
    if call.direct_blocked:
        # NAT/firewall pair: the default path is not establishable, so
        # only relayed options are on the table (§2.1).
        options = [o for o in options if o.is_relayed]
    return options


def _sample(world: World, call, option, rng: np.random.Generator):
    """One ground-truth draw for ``call`` riding ``option``."""
    return world.sample_call(
        call.src_asn,
        call.dst_asn,
        option,
        call.t_hours,
        rng,
        src_wireless=call.src_wireless,
        dst_wireless=call.dst_wireless,
        src_prefix=call.src_prefix,
        dst_prefix=call.dst_prefix,
    )


def _multipath_call(world, policy, call, options, rng):
    """One multipath call: two concurrent paths, one combined stream.

    Each call rides a :class:`~repro.core.multipath.PathSet` of two
    concurrent relay paths.  Both constituents get an independent
    ground-truth draw (primary first, then secondary, so the RNG stream
    stays deterministic), and the recorded outcome carries the *combined*
    stream metrics -- best-of for duplication, weighted blend for
    splitting.  Per-path samples during an outage show the world's outage
    penalty, so duplicated calls survive on the live path while split
    calls degrade in proportion to the lost share.
    """
    path_set = policy.assign_paths(call, options)
    primary = _sample(world, call, path_set.primary, rng)
    secondary = _sample(world, call, path_set.secondary, rng)
    combined = combined_metrics(path_set, primary, secondary)
    policy.observe_paths(call, path_set, primary, secondary, combined)
    return (path_set.primary, path_set.secondary), combined


def _probed_call(world, policy, call, plan, rng):
    """One hybrid-reactive call: probe candidates, switch to the winner.

    Media rides the predicted-best candidate during the probe window; the
    call then continues on the observed winner.  The recorded metrics are
    the duration-weighted blend of both phases (see
    :mod:`repro.core.hybrid`).
    """
    samples = {
        candidate: _sample(world, call, candidate, rng)
        for candidate in plan.candidates
    }
    final = policy.commit_probe(call, plan, samples)
    rest = _sample(world, call, final, rng)
    policy.observe(call, final, rest)
    metrics = blend_call_metrics(
        samples[plan.primary], rest, policy.probe_weight(call)
    )
    return (final,), metrics
