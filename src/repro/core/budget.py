"""Budgeted relaying: §4.6 of the paper.

Operators cap the fraction of calls that may use the managed overlay.  The
budget-aware gate relays a call only when its *predicted benefit* (direct
minus best-relay predicted performance) lands in the top B percentile of
recently observed benefits -- so the budget is spent on the calls that
gain the most.  The budget-unaware variant (the Figure 16 strawman) relays
any call with positive predicted benefit until the cap binds.

Both variants enforce the hard cap with a running relayed-call share.
The module also provides :class:`RelayLoadTracker` for the *per-relay*
budget model §4.6 mentions as a variant: no single relay node may carry
more than a configured share of recent calls, spreading load across the
fleet.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter, deque

from repro.netmodel.options import RelayOption

__all__ = ["BudgetGate", "RelayLoadTracker", "linear_quantile"]


def linear_quantile(ordered: list[float], q: float) -> float:
    """``np.quantile(values, q)`` (``method="linear"``) of a sorted, NaN-free
    list, computed on floats with numpy's formula step for step.

    The virtual index is ``(n - 1) * q``; out of range, both neighbours
    clamp to an end (the top one as index ``-1``, whose offset numpy takes
    as the weight).  Between its two neighbours numpy interpolates from
    below when the weight ``t`` is under one half and from above otherwise
    (``_lerp``), which rounds differently, so both branches are kept.
    ``ordered`` must be non-empty.
    """
    n = len(ordered)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = -1
    elif virtual < 0:
        below = above = 0
    else:
        below = math.floor(virtual)
        above = below + 1
    t = virtual - below
    a, b = ordered[below], ordered[above]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


class BudgetGate:
    """Decides, per call, whether relaying is allowed under the budget.

    ``budget`` is the maximum fraction of calls relayed (1.0 = unlimited).
    ``aware`` selects the percentile-threshold strategy of §4.6; when
    False the gate is first-come-first-served on positive benefit.
    """

    def __init__(
        self,
        budget: float = 1.0,
        *,
        aware: bool = True,
        benefit_memory: int = 5000,
        min_history: int = 50,
    ) -> None:
        if not 0.0 <= budget <= 1.0:
            raise ValueError(f"budget must be in [0, 1]: {budget}")
        if benefit_memory < 1 or min_history < 1:
            raise ValueError("memory sizes must be positive")
        self.budget = budget
        self.aware = aware
        # The benefit window in arrival order (for eviction), and its
        # non-NaN values kept sorted so the percentile is an index lookup.
        self._benefits: deque[float] = deque(maxlen=benefit_memory)
        self._sorted: list[float] = []
        self._n_nan = 0
        self._min_history = min_history
        self._total_calls = 0
        self._relayed_calls = 0
        # The threshold is recomputed every few records, not per call; the
        # gate's decisions (and the replay digests) follow this schedule.
        self._threshold_cache: float = 0.0
        self._threshold_stale = True
        self._records_since_refresh = 0
        self._refresh_every = max(1, min_history // 2)

    @property
    def relayed_fraction(self) -> float:
        """Fraction of calls relayed so far."""
        if self._total_calls == 0:
            return 0.0
        return self._relayed_calls / self._total_calls

    def threshold(self) -> float:
        """Current benefit threshold for relaying (aware mode).

        The (1 - B) quantile of recent predicted benefits: a call is
        relayed only if its benefit is in the top B percentile (§4.6).
        Before enough history accumulates, the threshold is 0 (any
        positive benefit qualifies) so the gate can bootstrap.
        """
        if not self.aware or self.budget >= 1.0:
            return 0.0
        if len(self._benefits) < self._min_history:
            return 0.0
        if self._threshold_stale:
            # np.quantile's answer for a window holding a NaN is NaN.
            self._threshold_cache = (
                math.nan
                if self._n_nan
                else float(linear_quantile(self._sorted, 1.0 - self.budget))
            )
            self._threshold_stale = False
        return self._threshold_cache

    def allows(self, benefit: float | None) -> bool:
        """May this call be relayed?  (Does not commit -- see record().)

        ``benefit`` is the predicted improvement of the best relay over
        the direct path on the optimised metric; ``None`` means the
        predictor could not compare (no direct-path prediction), which we
        treat as relayable -- exploration needs to reach such pairs.
        """
        if self.budget <= 0.0:
            return False
        if self.budget >= 1.0 and not self.aware:
            return True
        # Hard cap first: never exceed the relayed-call share.
        if (
            self.budget < 1.0
            and self._total_calls > self._min_history
            and self.relayed_fraction >= self.budget
        ):
            return False
        if benefit is None:
            return True
        if benefit <= 0.0:
            return False
        return benefit >= self.threshold()

    def record(self, benefit: float | None, relayed: bool) -> None:
        """Account one call: its predicted benefit and the actual decision."""
        self._total_calls += 1
        if relayed:
            self._relayed_calls += 1
        if benefit is not None:
            benefits = self._benefits
            if len(benefits) == benefits.maxlen:
                self._forget(benefits[0])  # the append below evicts it
            benefits.append(benefit)
            if math.isnan(benefit):
                self._n_nan += 1
            else:
                insort(self._sorted, benefit)
            self._records_since_refresh += 1
            if self._records_since_refresh >= self._refresh_every:
                self._threshold_stale = True
                self._records_since_refresh = 0

    def _forget(self, benefit: float) -> None:
        """Drop one evicted benefit from the sorted view."""
        if math.isnan(benefit):
            self._n_nan -= 1
        else:
            del self._sorted[bisect_left(self._sorted, benefit)]


class RelayLoadTracker:
    """Per-relay load accounting over a sliding window of recent calls.

    ``cap`` is the maximum share of recent calls any single relay may
    carry (a transit call counts against both its relays).  The §4.6
    per-relay budget variant: keeps hotspots off individual relay nodes
    even when overall relaying is unconstrained.
    """

    def __init__(self, cap: float, window: int = 2000) -> None:
        if not 0.0 < cap <= 1.0:
            raise ValueError(f"cap must be in (0, 1]: {cap}")
        if window < 10:
            raise ValueError(f"window must be >= 10: {window}")
        self.cap = cap
        self.window = window
        self._recent: deque[tuple[int, ...]] = deque()
        self._counts: Counter[int] = Counter()

    def __len__(self) -> int:
        return len(self._recent)

    def load(self, relay_id: int) -> float:
        """Share of recent calls carried by one relay."""
        if not self._recent:
            return 0.0
        return self._counts.get(relay_id, 0) / len(self._recent)

    def would_exceed(self, option: RelayOption) -> bool:
        """Would assigning this option push any of its relays past the cap?

        Conservative only once the window has some history, so the first
        calls of a run are never all forced onto the direct path.
        """
        if len(self._recent) < max(20, self.window // 20):
            return False
        return any(self.load(relay_id) >= self.cap for relay_id in option.relay_ids())

    def record(self, option: RelayOption) -> None:
        """Account one assigned call (direct calls count in the denominator)."""
        relay_ids = option.relay_ids()
        self._recent.append(relay_ids)
        for relay_id in relay_ids:
            self._counts[relay_id] += 1
        while len(self._recent) > self.window:
            evicted = self._recent.popleft()
            for relay_id in evicted:
                self._counts[relay_id] -= 1
                if self._counts[relay_id] <= 0:
                    del self._counts[relay_id]

    def loads(self) -> dict[int, float]:
        """Current per-relay load shares (diagnostics)."""
        total = max(1, len(self._recent))
        return {relay_id: count / total for relay_id, count in self._counts.items()}
