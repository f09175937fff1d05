"""Hybrid reactive relay selection: the §7 "Discussion" alternative, built.

The paper sketches a decentralised alternative to pure controller-driven
selection: let the client *try* several relaying options at the start of a
call and keep the best -- feasible for long calls, but wasteful without
guidance because the option space is large.  The hybrid the paper proposes
uses prediction-guided pruning to pick *which* few options to try.

:class:`HybridReactivePolicy` implements that: it reuses the VIA predictor
and dynamic top-k to nominate ``probe_top_n`` candidates, the replay
engine measures all candidates during the first ``probe_window_s`` of the
call (media rides the predicted-best candidate meanwhile), and the call
then switches to the observed winner.  The realised call quality is the
duration-weighted blend of the probe phase and the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import ViaConfig, ViaPolicy
from repro.netmodel.metrics import PathMetrics, linear_to_loss, loss_to_linear
from repro.netmodel.options import RelayOption
from repro.telephony.call import Call

__all__ = ["ProbePlan", "HybridReactivePolicy", "blend_call_metrics"]


@dataclass(frozen=True, slots=True)
class ProbePlan:
    """In-call probe instruction: measure ``candidates``, start on ``primary``."""

    candidates: tuple[RelayOption, ...]
    primary: RelayOption

    def __post_init__(self) -> None:
        if len(self.candidates) < 2:
            raise ValueError("probing needs at least two candidates")
        if self.primary not in self.candidates:
            raise ValueError("primary must be one of the candidates")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("duplicate candidates")


def blend_call_metrics(
    probe_phase: PathMetrics, rest_phase: PathMetrics, probe_weight: float
) -> PathMetrics:
    """Duration-weighted average of the two call phases.

    RTT and jitter blend linearly; loss blends in the linearised domain
    (equivalent to the packet-weighted survival rate for small losses).
    """
    if not 0.0 <= probe_weight <= 1.0:
        raise ValueError(f"probe_weight must be in [0, 1]: {probe_weight}")
    w = probe_weight
    return PathMetrics(
        rtt_ms=w * probe_phase.rtt_ms + (1.0 - w) * rest_phase.rtt_ms,
        loss_rate=linear_to_loss(
            w * loss_to_linear(probe_phase.loss_rate)
            + (1.0 - w) * loss_to_linear(rest_phase.loss_rate)
        ),
        jitter_ms=w * probe_phase.jitter_ms + (1.0 - w) * rest_phase.jitter_ms,
    )


class HybridReactivePolicy(ViaPolicy):
    """VIA's prediction-guided pruning + in-call reactive switching.

    For calls long enough to amortise a probe window, :meth:`plan_probe`
    nominates the best-predicted ``probe_top_n`` options; the replay
    engine measures them concurrently and calls :meth:`commit_probe`,
    which picks the observed winner on the optimised metric.  Short calls
    fall back to plain Algorithm-1 assignment.
    """

    def __init__(
        self,
        config: ViaConfig | None = None,
        *,
        inter_relay=None,
        name: str | None = None,
        probe_top_n: int = 2,
        probe_window_s: float = 10.0,
        min_duration_s: float = 60.0,
    ) -> None:
        if probe_top_n < 2:
            raise ValueError("probe_top_n must be >= 2")
        if probe_window_s <= 0.0 or min_duration_s <= 0.0:
            raise ValueError("durations must be positive")
        super().__init__(config, inter_relay=inter_relay, name=name or "hybrid-reactive")
        self.probe_top_n = probe_top_n
        self.probe_window_s = probe_window_s
        self.min_duration_s = min_duration_s
        self.n_probed_calls = 0

    def plan_probe(self, call: Call, options: list[RelayOption]) -> ProbePlan | None:
        """Nominate probe candidates for a call, or None to assign normally."""
        if call.duration_s < self.min_duration_s:
            return None
        # Reuse Algorithm 1's periodic refresh + pruning machinery.
        period = int(call.t_hours // self.config.refresh_hours)
        if period != self._period:
            self._refresh(period)
        view = self._keyer.view(call)
        state, _ = self._state_for(
            view.pair_key, call.direct_blocked, options, view.flipped
        )
        candidates = state.topk[: self.probe_top_n]
        if len(candidates) < 2:
            return None
        self.n_probed_calls += 1
        return ProbePlan(
            candidates=tuple(view.denormalize(c) for c in candidates),
            primary=view.denormalize(candidates[0]),
        )

    def probe_weight(self, call: Call) -> float:
        """Fraction of the call spent in the probe window."""
        return min(1.0, self.probe_window_s / call.duration_s)

    def commit_probe(
        self,
        call: Call,
        plan: ProbePlan,
        samples: dict[RelayOption, PathMetrics],
    ) -> RelayOption:
        """Pick the observed winner and learn from every probe sample."""
        missing = [c for c in plan.candidates if c not in samples]
        if missing:
            raise ValueError(f"samples missing for candidates: {missing}")
        for option, metrics in samples.items():
            self.observe(call, option, metrics)
        return min(
            plan.candidates, key=lambda c: self._cost.call_cost(samples[c])
        )
