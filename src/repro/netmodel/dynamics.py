"""Temporal dynamics: day-scale regime switching and diurnal load.

Section 2.4 of the paper shows that poor network performance is *temporally
spread*: 10-20% of AS pairs are always bad, but 60-70% are bad less than
30% of the time in stretches of at most a day.  Section 3.2 (Figure 9)
shows the oracle's best relaying option changes within 2 days for ~30% of
AS pairs.  Both shapes require network segments whose quality shifts on a
timescale of days.

We model each segment's quality as a three-state Markov chain sampled once
per day (GOOD / DEGRADED / BAD), with per-metric multipliers attached to
each state, plus a mild deterministic diurnal load curve within the day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

__all__ = [
    "RegimeConfig",
    "RegimeProcess",
    "diurnal_factor",
    "diurnal_tilt",
    "STABLE_REGIME",
    "PUBLIC_WAN_REGIME",
    "ACCESS_REGIME",
]


@dataclass(frozen=True)
class RegimeConfig:
    """Parameters of a three-state daily quality Markov chain.

    ``transition[i][j]`` is the probability of moving from state ``i`` to
    state ``j`` between consecutive days.  The multiplier tuples give, for
    each state, the factor applied to the segment's base RTT, linearised
    loss, and jitter.
    """

    transition: tuple[tuple[float, float, float], ...]
    rtt_multipliers: tuple[float, float, float]
    loss_multipliers: tuple[float, float, float]
    jitter_multipliers: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.transition) != 3:
            raise ValueError("transition matrix must be 3x3")
        for row in self.transition:
            if len(row) != 3:
                raise ValueError("transition matrix must be 3x3")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"transition row must sum to 1: {row}")
            if any(p < 0.0 for p in row):
                raise ValueError(f"transition probabilities must be >= 0: {row}")
        for mults in (self.rtt_multipliers, self.loss_multipliers, self.jitter_multipliers):
            if len(mults) != 3:
                raise ValueError("need one multiplier per state")
            if any(m <= 0.0 for m in mults):
                raise ValueError(f"multipliers must be positive: {mults}")

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the chain (left eigenvector for 1)."""
        matrix = np.asarray(self.transition, dtype=float)
        values, vectors = np.linalg.eig(matrix.T)
        idx = int(np.argmin(np.abs(values - 1.0)))
        pi = np.real(vectors[:, idx])
        pi = np.abs(pi)
        return pi / pi.sum()


#: Private inter-datacenter backbone: almost always good, tiny penalties.
STABLE_REGIME = RegimeConfig(
    transition=(
        (0.98, 0.02, 0.00),
        (0.70, 0.28, 0.02),
        (0.60, 0.30, 0.10),
    ),
    rtt_multipliers=(1.0, 1.05, 1.15),
    loss_multipliers=(1.0, 1.5, 3.0),
    jitter_multipliers=(1.0, 1.2, 1.5),
)

#: Public wide-area segments: visits to DEGRADED/BAD are common and can
#: persist for a few days -- the source of the paper's temporal spread.
PUBLIC_WAN_REGIME = RegimeConfig(
    transition=(
        (0.75, 0.18, 0.07),
        (0.42, 0.42, 0.16),
        (0.28, 0.32, 0.40),
    ),
    rtt_multipliers=(1.0, 1.45, 2.6),
    loss_multipliers=(1.0, 3.0, 9.0),
    jitter_multipliers=(1.0, 1.8, 3.2),
)

#: Access networks: degradations are frequent but milder on RTT, strong on
#: loss/jitter (congested last mile).
ACCESS_REGIME = RegimeConfig(
    transition=(
        (0.85, 0.12, 0.03),
        (0.50, 0.40, 0.10),
        (0.35, 0.35, 0.30),
    ),
    rtt_multipliers=(1.0, 1.15, 1.4),
    loss_multipliers=(1.0, 2.5, 6.0),
    jitter_multipliers=(1.0, 1.3, 1.8),
)


@dataclass(slots=True)
class RegimeProcess:
    """A realised trajectory of a :class:`RegimeConfig` over ``n_days``.

    The trajectory is drawn once at construction (deterministic given the
    generator), so every query for the same day sees the same state --
    required for the §5.1 semantics where all calls on a (pair, option,
    day) share one underlying distribution.
    """

    config: RegimeConfig
    states: np.ndarray = field(repr=False)

    @classmethod
    def sample(
        cls, config: RegimeConfig, n_days: int, rng: np.random.Generator
    ) -> "RegimeProcess":
        if n_days < 1:
            raise ValueError(f"n_days must be >= 1: {n_days}")
        matrix = np.asarray(config.transition, dtype=float)
        states = np.empty(n_days, dtype=np.int8)
        # Start from the stationary distribution to avoid a burn-in bias.
        state = int(rng.choice(3, p=config.stationary_distribution()))
        for day in range(n_days):
            states[day] = state
            state = int(rng.choice(3, p=matrix[state]))
        return cls(config=config, states=states)

    @property
    def n_days(self) -> int:
        return len(self.states)

    def state_on(self, day: int) -> int:
        """State on ``day`` (clamped to the final day beyond the horizon)."""
        if day < 0:
            raise ValueError(f"day must be >= 0: {day}")
        return int(self.states[min(day, len(self.states) - 1)])

    def multipliers_on(self, day: int) -> tuple[float, float, float]:
        """(rtt, linear-loss, jitter) multipliers in effect on ``day``."""
        state = self.state_on(day)
        return (
            self.config.rtt_multipliers[state],
            self.config.loss_multipliers[state],
            self.config.jitter_multipliers[state],
        )


def diurnal_tilt(t_hours: float, peak_hour: float = 20.0) -> float:
    """The within-day load curve in ``[-1, 1]``, peaking at ``peak_hour``."""
    return math.cos(2.0 * math.pi * (t_hours % 24.0 - peak_hour) / 24.0)


def diurnal_factor(t_hours: float, amplitude: float = 0.08, peak_hour: float = 20.0) -> float:
    """Mild within-day load multiplier peaking in the evening.

    ``t_hours`` is absolute simulation time in hours; only the time of day
    matters.  The factor averages ~1.0 over a day so it perturbs rather
    than shifts daily means.
    """
    if amplitude < 0.0 or amplitude >= 1.0:
        raise ValueError(f"amplitude must be in [0, 1): {amplitude}")
    return 1.0 + amplitude * diurnal_tilt(t_hours, peak_hour)
