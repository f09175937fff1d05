"""Modified UCB1 exploration-exploitation: Algorithm 3 of the paper.

Standard UCB1 maximises normalised rewards in [0, 1]; VIA minimises a
network metric whose distribution has heavy outliers, so two changes are
made (§4.5):

1. **Normalisation** -- costs are divided by the *average upper 95%
   confidence bound of the top-k candidates* rather than the observed
   range, so one outlier RTT cannot compress the common case into
   indistinguishability.  (The ``classic`` mode implements range
   normalisation for the Figure 15 ablation.)
2. **General exploration** -- the ε fraction of calls routed to random
   options *outside* the top-k lives in the policy (Algorithm 1), keeping
   the bandit honest under non-stationary rewards.

The selection rule is the paper's:

    ucb(r) = mean_cost(r) / w  -  sqrt(coef * log T / n_r),      pick argmin
"""

from __future__ import annotations

import math

from repro.core.predictor import Prediction
from repro.netmodel.options import RelayOption

__all__ = ["UCB1Explorer"]


class UCB1Explorer:
    """One pair's bandit over its top-k relaying options.

    ``arms`` must be ordered best-predicted-first: untried arms are played
    in that order before any UCB comparison happens (standard UCB1
    initialisation, seeded by the predictor's ranking).
    """

    def __init__(
        self,
        arms: list[RelayOption],
        *,
        normalizer: float,
        exploration_coef: float = 0.1,
        mode: str = "via",
    ) -> None:
        if not arms:
            raise ValueError("bandit needs at least one arm")
        if len(set(arms)) != len(arms):
            raise ValueError("duplicate arms")
        if normalizer <= 0.0:
            raise ValueError(f"normalizer must be positive: {normalizer}")
        if mode not in ("via", "classic"):
            raise ValueError(f"mode must be 'via' or 'classic': {mode!r}")
        if not 0.0 <= exploration_coef < math.inf:
            raise ValueError(f"exploration_coef must be finite and >= 0: {exploration_coef!r}")
        self.arms = list(arms)
        self.mode = mode
        self.exploration_coef = exploration_coef
        self._normalizer = normalizer
        self._counts: dict[RelayOption, int] = {arm: 0 for arm in arms}
        self._cost_sums: dict[RelayOption, float] = {arm: 0.0 for arm in arms}
        self._total_plays = 0
        self._max_seen_cost = 0.0

    @classmethod
    def from_predictions(
        cls,
        arms: list[RelayOption],
        predictions: dict[RelayOption, Prediction],
        metric_idx: int,
        *,
        exploration_coef: float = 0.1,
        mode: str = "via",
    ) -> "UCB1Explorer":
        """Build with the paper's normaliser: mean of top-k upper bounds."""
        uppers = [
            predictions[arm].upper(metric_idx) for arm in arms if arm in predictions
        ]
        normalizer = max(1e-9, sum(uppers) / len(uppers)) if uppers else 1.0
        return cls(
            arms, normalizer=normalizer, exploration_coef=exploration_coef, mode=mode
        )

    @classmethod
    def from_cost_model(
        cls,
        arms: list[RelayOption],
        predictions: dict[RelayOption, Prediction],
        cost_model,
        *,
        exploration_coef: float = 0.1,
        mode: str = "via",
    ) -> "UCB1Explorer":
        """As :meth:`from_predictions` but for any cost model (e.g. MOS)."""
        uppers = [
            cost_model.predicted_upper(predictions[arm])
            for arm in arms
            if arm in predictions
        ]
        normalizer = max(1e-9, sum(uppers) / len(uppers)) if uppers else 1.0
        return cls(
            arms, normalizer=normalizer, exploration_coef=exploration_coef, mode=mode
        )

    @property
    def total_plays(self) -> int:
        return self._total_plays

    @property
    def max_seen_cost(self) -> float:
        return self._max_seen_cost

    def count(self, arm: RelayOption) -> int:
        return self._counts[arm]

    def has_arm(self, arm: RelayOption) -> bool:
        """O(1) membership test (the vector observe path's arm gate)."""
        return arm in self._counts

    def mean_cost(self, arm: RelayOption) -> float | None:
        n = self._counts[arm]
        if n == 0:
            return None
        return self._cost_sums[arm] / n

    def choose(self) -> RelayOption:
        """Pick the next arm: untried arms first, then minimal UCB index."""
        for arm in self.arms:
            if self._counts[arm] == 0:
                return arm
        log_t = math.log(self._total_plays + 1)
        normalizer = self._effective_normalizer()
        best_arm = self.arms[0]
        best_index = math.inf
        for arm in self.arms:
            n = self._counts[arm]
            mean = self._cost_sums[arm] / n
            index = mean / normalizer - math.sqrt(self.exploration_coef * log_t / n)
            if index < best_index:
                best_index = index
                best_arm = arm
        return best_arm

    def update(self, arm: RelayOption, cost: float) -> None:
        """Fold one observed cost (the realised metric value) into an arm."""
        if arm not in self._counts:
            raise KeyError(f"unknown arm {arm}")
        if cost < 0.0 or math.isnan(cost):
            raise ValueError(f"cost must be a non-negative number: {cost}")
        self._counts[arm] += 1
        self._cost_sums[arm] += cost
        self._total_plays += 1
        self._max_seen_cost = max(self._max_seen_cost, cost)

    def update_many(self, arm, costs) -> None:
        """Fold many observed costs into one arm, bit-identical to a loop
        of :meth:`update` calls.

        Per-arm cost sums are folded in sequence order (float addition is
        order-sensitive); ``total_plays`` and ``max_seen_cost`` are
        order-independent, so interleaving updates across *different* arms
        commutes -- which is what lets the vector observe path group a
        batch by arm.  Costs are coerced to Python floats so checkpoint
        serialisation keeps seeing plain JSON-encodable numbers.  On an
        invalid cost the whole batch is rejected without partial effect
        (the one place the scalar loop, which applies prefixes before
        raising, differs).
        """
        if arm not in self._counts:
            raise KeyError(f"unknown arm {arm}")
        total = self._cost_sums[arm]
        worst = self._max_seen_cost
        n = 0
        for cost in costs:
            cost = float(cost)
            if cost < 0.0 or math.isnan(cost):
                raise ValueError(f"cost must be a non-negative number: {cost}")
            total += cost
            if cost > worst:
                worst = cost
            n += 1
        self._counts[arm] += n
        self._cost_sums[arm] = total
        self._total_plays += n
        self._max_seen_cost = worst

    def _effective_normalizer(self) -> float:
        if self.mode == "via":
            return self._normalizer
        # Classic UCB1 emulation: normalise by the observed cost range so
        # outliers compress the scale (what Figure 15 shows going wrong).
        return max(self._max_seen_cost, 1e-9)

    def export_state(self) -> dict[RelayOption, tuple[int, float]]:
        """Per-arm (count, cost_sum) pairs, for controller checkpointing."""
        return {arm: (self._counts[arm], self._cost_sums[arm]) for arm in self.arms}

    def restore_state(
        self,
        per_arm: dict[RelayOption, tuple[int, float]],
        *,
        max_seen_cost: float = 0.0,
    ) -> None:
        """Overlay (count, cost_sum) pairs exported by :meth:`export_state`.

        Arms unknown to this bandit are ignored -- the candidate set may
        have shifted between checkpoint and restore; total plays are
        recomputed from the restored counts.
        """
        for arm, (count, cost_sum) in per_arm.items():
            if arm in self._counts:
                self._counts[arm] = int(count)
                self._cost_sums[arm] = float(cost_sum)
        self._total_plays = sum(self._counts.values())
        self._max_seen_cost = max(self._max_seen_cost, float(max_seen_cost))

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Diagnostic view of per-arm state (for logs and tests)."""
        return {
            str(arm): {
                "count": float(self._counts[arm]),
                "mean_cost": float(self._cost_sums[arm] / self._counts[arm])
                if self._counts[arm]
                else float("nan"),
            }
            for arm in self.arms
        }
