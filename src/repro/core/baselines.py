"""Baselines: the default path, the oracle, and both §4.2 strawmen.

* :class:`DefaultPolicy` -- always the BGP default path (the paper's
  "default strategy" that all improvements are measured against).
* :class:`OraclePolicy` -- picks, per (pair, day), the option with the
  best *ground-truth mean* (§3.2); foresight no real system has.  With a
  budget it spends the relay quota on the calls with the largest true
  benefit.
* Strawman I (:func:`make_strawman_prediction`) -- pure prediction:
  always the argmin predicted option, no bandit refinement.
* Strawman II (:func:`make_strawman_exploration`) -- pure exploration:
  ε-greedy over *all* relaying options with no pruning.
* :func:`make_via` -- the full Algorithm 1 configuration.

Strawmen are thin configurations of :class:`~repro.core.policy.ViaPolicy`
so every strategy shares one code path and differs exactly where the
paper says it does.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.budget import BudgetGate
from repro.core.policy import ViaConfig, ViaPolicy
from repro.core.costs import make_cost_model
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.telephony.call import Call

if TYPE_CHECKING:  # pragma: no cover
    from repro.netmodel.world import World

__all__ = [
    "DefaultPolicy",
    "OraclePolicy",
    "via_config",
    "make_via",
    "make_strawman_prediction",
    "make_strawman_exploration",
]


class DefaultPolicy:
    """Always use the default Internet path.

    NAT-blocked calls have no direct path; like pre-VIA Skype, they fall
    back to the first available relay purely for connectivity.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        if not call.direct_blocked:
            return DIRECT
        for option in options:
            if option.is_relayed:
                return option
        return DIRECT

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        return None


class OraclePolicy:
    """Foresight baseline: best true-mean option per (AS pair, day) (§3.2).

    The oracle sees the world's ground truth for the current day -- the
    paper's oracle likewise knows each option's average performance for
    the source-destination pair on that day.  Under a budget it relays
    only calls whose *true* benefit clears the §4.6 percentile gate.
    """

    def __init__(
        self,
        world: "World",
        metric: str = "rtt_ms",
        *,
        budget: float = 1.0,
        name: str | None = None,
    ) -> None:
        self.world = world
        self.metric = metric
        self._cost = make_cost_model(metric)
        self.name = name or f"oracle[{metric}]"
        self._best_cache: dict[tuple[int, int, int], tuple[RelayOption, float]] = {}
        self._budget_gate: BudgetGate | None = None
        if budget < 1.0:
            self._budget_gate = BudgetGate(budget, aware=True)

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        best, benefit = self._best_for(call, options)
        gate = self._budget_gate
        if gate is None:
            return best
        if best.is_relayed and gate.allows(benefit):
            gate.record(benefit, relayed=True)
            return best
        gate.record(benefit, relayed=False)
        return DIRECT

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        return None

    def _best_for(
        self, call: Call, options: list[RelayOption]
    ) -> tuple[RelayOption, float]:
        """(best option, true benefit over direct) for the call's day.

        NAT-blocked calls see a different (direct-less) option set, so the
        cache is keyed on that flag as well.
        """
        a, b = call.as_pair
        flipped = call.src_asn > call.dst_asn
        cache_key = (a, b, call.day, call.direct_blocked)
        cached = self._best_cache.get(cache_key)
        if cached is None:
            canonical = [o.reversed() if flipped else o for o in options]
            best_cost = float("inf")
            best_opt = DIRECT
            direct_cost = float("inf")
            for option in canonical:
                cost = self._cost.call_cost(self.world.true_mean(a, b, option, call.day))
                if option is DIRECT or option == DIRECT:
                    direct_cost = cost
                if cost < best_cost:
                    best_cost = cost
                    best_opt = option
            cached = (best_opt, direct_cost - best_cost)
            self._best_cache[cache_key] = cached
        best_opt, benefit = cached
        return (best_opt.reversed() if flipped else best_opt), benefit


def via_config(
    metric: str = "rtt_ms",
    *,
    budget: float = 1.0,
    budget_aware: bool = True,
    granularity: str = "as",
    refresh_hours: float = 24.0,
    seed: int = 42,
    **overrides,
) -> ViaConfig:
    """The full Algorithm-1 configuration (dynamic top-k + modified UCB1).

    The one source of truth for what "the VIA configuration" means:
    :func:`make_via`, the policy registry's ``via`` family, and the
    deployment testbed all build their :class:`ViaConfig` here, so a
    config tweak lands everywhere at once.
    """
    config = ViaConfig(
        metric=metric,
        topk_mode="dynamic",
        selector="ucb",
        ucb_mode="via",
        budget=budget,
        budget_aware=budget_aware,
        granularity=granularity,  # type: ignore[arg-type]
        refresh_hours=refresh_hours,
        seed=seed,
    )
    if overrides:
        config = replace(config, **overrides)
    return config


def make_via(
    metric: str = "rtt_ms",
    *,
    inter_relay=None,
    budget: float = 1.0,
    budget_aware: bool = True,
    granularity: str = "as",
    refresh_hours: float = 24.0,
    seed: int = 42,
    **overrides,
) -> ViaPolicy:
    """The full VIA policy of Algorithm 1 (dynamic top-k + modified UCB1)."""
    config = via_config(
        metric,
        budget=budget,
        budget_aware=budget_aware,
        granularity=granularity,
        refresh_hours=refresh_hours,
        seed=seed,
        **overrides,
    )
    return ViaPolicy(config, inter_relay=inter_relay, name=f"via[{metric}]")


def make_strawman_prediction(
    metric: str = "rtt_ms",
    *,
    inter_relay=None,
    seed: int = 43,
    **overrides,
) -> ViaPolicy:
    """Strawman I (§4.2): pure prediction -- argmin predicted mean.

    Keeps the same ε random measurement traffic as VIA so it has history
    to predict from (in the paper this history comes from the production
    trace), but never refines its choice with a bandit.
    """
    config = ViaConfig(metric=metric, topk_mode="argmin", seed=seed)
    if overrides:
        config = replace(config, **overrides)
    return ViaPolicy(config, inter_relay=inter_relay, name=f"strawman-prediction[{metric}]")


def make_strawman_exploration(
    metric: str = "rtt_ms",
    *,
    seed: int = 44,
    greedy_epsilon: float = 0.1,
    **overrides,
) -> ViaPolicy:
    """Strawman II (§4.2): pure exploration -- ε-greedy over all options.

    No prediction, no tomography, no pruning: the explorer must discover
    the per-pair option ranking from its own samples alone, which the
    skew and variance of §4.2 make slow and wasteful.
    """
    config = ViaConfig(
        metric=metric,
        topk_mode="all",
        selector="greedy",
        greedy_epsilon=greedy_epsilon,
        use_tomography=False,
        epsilon=0.0,  # its exploration lives in greedy_epsilon instead
        seed=seed,
    )
    if overrides:
        config = replace(config, **overrides)
    return ViaPolicy(config, inter_relay=None, name=f"strawman-exploration[{metric}]")
