"""Algorithm 1: the VIA relay-selection policy (prediction-guided exploration).

One :class:`ViaPolicy` instance plays the role of the paper's controller
for a single optimised metric:

* every ``refresh_hours`` (T, default 24) it rebuilds the tomography model
  and predictor from the previous window's call history (stages 2-3),
* per call it prunes to the top-k candidates (Algorithm 2) and runs the
  modified UCB1 bandit over them (Algorithm 3), with an ε fraction of
  calls sent to uniformly random options for general exploration,
* optionally it applies the §4.6 budget gate before any relayed choice.

Configuration switches also express the paper's ablations and both
strawmen (see :mod:`repro.core.baselines`), so every compared strategy
shares this one code path and differs only where the paper says it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Hashable, Protocol

import numpy as np

from repro.core.bandit import UCB1Explorer
from repro.core.budget import BudgetGate, RelayLoadTracker
from repro.core.coordinates import CoordinateSystem
from repro.core.costs import COST_MODEL_NAMES, CostModel, make_cost_model
from repro.core.history import (
    CallHistory,
    CheckpointCodec,
    history_from_dict,
    history_to_dict,
)
from repro.core.keys import Granularity, PairKeyer, PairView
from repro.core.predictor import Prediction, Predictor
from repro.core.tomography import InterRelayLookup, TomographyModel
from repro.core.topk import dynamic_top_k_cost, fixed_top_k_cost
from repro.core.vector import (
    CallBatch,
    MetricsBatch,
    as_call_batch,
    as_metrics_batch,
    epsilon_explorations,
)
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.obs import runtime as obs_runtime
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.tracing import trace
from repro.telephony.call import Call

__all__ = [
    "SelectionPolicy",
    "ViaConfig",
    "ViaPolicy",
    "make_policy",
]


class SelectionPolicy(Protocol):
    """What the replay engine needs from any relay-selection strategy."""

    name: str

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        """Pick a relaying option for ``call`` among ``options``."""
        ...

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        """Learn from the realised performance of an assigned call."""
        ...


@dataclass(frozen=True, slots=True)
class ViaConfig:
    """Every knob of Algorithm 1 and its ablations.

    ``topk_mode``:
      * ``dynamic`` -- Algorithm 2 (confidence-interval top-k); the paper.
      * ``fixed``   -- best ``fixed_k`` predicted means (Figure 15 ablation).
      * ``argmin``  -- k = 1, no bandit: pure prediction (Strawman I).
      * ``all``     -- no pruning: explore everything (Strawman II).

    ``selector``:
      * ``ucb``    -- modified UCB1 (Algorithm 3).
      * ``greedy`` -- ε-greedy on empirical means (Strawman II's explorer).

    ``ucb_mode`` chooses the paper's top-k-upper-bound normalisation
    (``via``) or the classic range normalisation (``classic``, the other
    Figure 15 ablation).
    """

    metric: str = "rtt_ms"
    refresh_hours: float = 24.0
    epsilon: float = 0.03
    topk_mode: str = "dynamic"
    fixed_k: int = 2
    max_k: int | None = 6
    selector: str = "ucb"
    ucb_mode: str = "via"
    exploration_coef: float = 0.1
    greedy_epsilon: float = 0.1
    min_direct_samples: int = 3
    use_tomography: bool = True
    #: Extension: learn a Vivaldi embedding from direct-path RTTs and use
    #: it to predict the direct path of never-seen pairs.
    use_coordinates: bool = False
    budget: float = 1.0
    budget_aware: bool = True
    #: Per-relay load cap (§4.6's per-relay budget variant): no single
    #: relay may carry more than this share of recent calls.  None = off.
    per_relay_cap: float | None = None
    #: Sliding window (calls) over which per-relay load is measured.
    per_relay_window: int = 2000
    granularity: Granularity = "as"
    seed: int = 42

    def __post_init__(self) -> None:
        if self.metric not in COST_MODEL_NAMES:
            raise ValueError(
                f"unknown metric {self.metric!r}; expected one of {COST_MODEL_NAMES}"
            )
        if self.topk_mode not in ("dynamic", "fixed", "argmin", "all"):
            raise ValueError(f"unknown topk_mode: {self.topk_mode!r}")
        if self.selector not in ("ucb", "greedy"):
            raise ValueError(f"unknown selector: {self.selector!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 <= self.greedy_epsilon <= 1.0:
            raise ValueError("greedy_epsilon must be in [0, 1]")
        if self.refresh_hours <= 0.0:
            raise ValueError("refresh_hours must be > 0")
        if not 0.0 <= self.budget <= 1.0:
            raise ValueError("budget must be in [0, 1]")
        if self.fixed_k < 1:
            raise ValueError("fixed_k must be >= 1")

    def with_metric(self, metric: str) -> "ViaConfig":
        """A copy optimising a different metric (runs are per-metric, §5)."""
        return replace(self, metric=metric)


@dataclass(slots=True)
class _PairState:
    """Per-(pair, period) cached pruning + bandit state.

    ``menus`` maps a call orientation (``PairView.flipped``) to the last
    call menu seen in it and that menu in store orientation, so a warm
    pair's calls skip re-normalising their options.  The orientation that
    created the state caches ``options`` itself as its normalised list.
    """

    options: list[RelayOption]
    topk: list[RelayOption]
    predictions: dict[RelayOption, Prediction]
    bandit: UCB1Explorer | None
    benefit: float | None = None
    argmin_choice: RelayOption | None = None
    greedy_counts: dict[RelayOption, int] = field(default_factory=dict)
    greedy_sums: dict[RelayOption, float] = field(default_factory=dict)
    menus: dict[bool, tuple[list[RelayOption], list[RelayOption]]] = field(
        default_factory=dict
    )


class ViaPolicy:
    """Stateful controller implementing Algorithm 1 for one metric."""

    def __init__(
        self,
        config: ViaConfig | None = None,
        *,
        inter_relay: InterRelayLookup | None = None,
        name: str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ViaConfig()
        self.name = name or f"via[{self.config.metric}]"
        self._cost: CostModel = make_cost_model(self.config.metric)
        self._inter_relay = inter_relay
        self._keyer = PairKeyer(self.config.granularity)
        self._rng = np.random.default_rng(self.config.seed)
        self.history = CallHistory(window_hours=self.config.refresh_hours)
        self._period = -1
        self._predictor: Predictor | None = None
        self._pair_state: dict[Hashable, _PairState] = {}
        self._budget_gate: BudgetGate | None = None
        if self.config.budget < 1.0:
            self._budget_gate = BudgetGate(self.config.budget, aware=self.config.budget_aware)
        self._coordinates: CoordinateSystem | None = None
        if self.config.use_coordinates:
            self._coordinates = CoordinateSystem()
        self._load_tracker: RelayLoadTracker | None = None
        if self.config.per_relay_cap is not None:
            self._load_tracker = RelayLoadTracker(
                self.config.per_relay_cap, window=self.config.per_relay_window
            )
        # Relays currently marked down by the operator / fault plan: assign
        # skips options through them and repicks (graceful degradation, §7).
        self._down_relays: frozenset[int] = frozenset()
        # Diagnostics used by benches (§5.2 relay-mix, refresh counts).
        self.n_refreshes = 0
        self.n_epsilon_explorations = 0
        self.n_outage_repicks = 0
        # Observability: instruments are registered up front (so scrapes
        # show them at zero) but only fed while `repro.obs.runtime` is
        # enabled -- the disabled hot path pays one flag check.
        self.registry = registry if registry is not None else REGISTRY
        metric = self.config.metric
        self._obs_assign = self.registry.histogram(
            "via_assign_duration_seconds",
            "Wall time of ViaPolicy.assign, by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        self._obs_observe = self.registry.histogram(
            "via_observe_duration_seconds",
            "Wall time of ViaPolicy.observe, by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        self._obs_refreshes = self.registry.counter(
            "via_refreshes_total",
            "Predictor/tomography rebuilds (stages 2-3), by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        self._obs_epsilon = self.registry.counter(
            "via_epsilon_explorations_total",
            "Calls sent to epsilon general exploration, by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        self._obs_repicks = self.registry.counter(
            "via_outage_repicks_total",
            "Assignments re-picked around a down relay, by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        self._obs_assign_batch = self.registry.histogram(
            "via_assign_batch_duration_seconds",
            "Wall time of ViaPolicy.assign_many, by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        self._obs_observe_batch = self.registry.histogram(
            "via_observe_batch_duration_seconds",
            "Wall time of ViaPolicy.observe_many, by optimised metric.",
            ("metric",),
        ).labels(metric=metric)
        batch_calls = self.registry.counter(
            "via_batch_calls_total",
            "Calls served through the batch (vector) interface, by operation.",
            ("metric", "op"),
        )
        self._obs_batch_assigns = batch_calls.labels(metric=metric, op="assign")
        self._obs_batch_observes = batch_calls.labels(metric=metric, op="observe")

    # ------------------------------------------------------------------
    # SelectionPolicy interface
    # ------------------------------------------------------------------

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        if not obs_runtime.enabled:
            return self._assign(call, options)
        t0 = perf_counter()
        with trace("assign", metric=self.config.metric) as span:
            choice = self._assign(call, options)
            span.tag(option=choice.kind.value)
        self._obs_assign.observe(perf_counter() - t0)
        return choice

    def _assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        if not options:
            raise ValueError("assign() needs at least one option")
        period = int(call.t_hours // self.config.refresh_hours)
        if period != self._period:
            self._refresh(period)
        view = self._keyer.view(call)
        state, norm_options = self._state_for(
            view.pair_key, call.direct_blocked, options, view.flipped
        )

        gate = self._budget_gate
        if gate is not None and not gate.allows(state.benefit):
            fallback = self._avoid_down(state, norm_options, self._fallback(norm_options))
            gate.record(state.benefit, relayed=fallback.is_relayed)
            return view.denormalize(fallback)

        choice = self._avoid_down(state, norm_options, self._choose(state, norm_options))
        tracker = self._load_tracker
        if tracker is not None:
            if choice.is_relayed and tracker.would_exceed(choice):
                choice = self._divert_overloaded(state, norm_options, choice)
            tracker.record(choice)
        if gate is not None:
            gate.record(state.benefit, relayed=choice.is_relayed)
        return view.denormalize(choice)

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        if not obs_runtime.enabled:
            return self._observe(call, option, metrics)
        t0 = perf_counter()
        with trace("observe", metric=self.config.metric):
            self._observe(call, option, metrics)
        self._obs_observe.observe(perf_counter() - t0)
        return None

    def _observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        view = self._keyer.view(call)
        norm = view.normalize(option)
        self.history.add(view.pair_key, norm, call.t_hours, metrics)
        if self._coordinates is not None and not option.is_relayed:
            side_s, side_d = view.pair_key
            if side_s != side_d:
                self._coordinates.observe(side_s, side_d, metrics.rtt_ms)
        state = self._pair_state.get((view.pair_key, call.direct_blocked))
        if state is None:
            return
        cost = self._cost.call_cost(metrics)
        if state.bandit is not None and norm in state.bandit.arms:
            state.bandit.update(norm, cost)
        if self.config.selector == "greedy":
            state.greedy_counts[norm] = state.greedy_counts.get(norm, 0) + 1
            state.greedy_sums[norm] = state.greedy_sums.get(norm, 0.0) + cost

    # ------------------------------------------------------------------
    # Batch (vector) interface
    # ------------------------------------------------------------------

    def assign_many(self, calls, options_per_call) -> list[RelayOption]:
        """Assign a batch of calls, bit-identical to sequential ``assign``.

        ``calls`` is a sequence of :class:`Call`\\ s or a prebuilt
        :class:`~repro.core.vector.CallBatch`; ``options_per_call[i]`` is
        call ``i``'s candidate list.  The contract (proven by
        ``run_differential`` and ``tests/test_vector.py``): the returned
        choices, the RNG position, and every piece of learned state equal
        what ``[self.assign(c, o) for ...]`` -- with **no interleaved
        observes** -- would have produced.  Configurations outside the
        vector fast path (greedy selector, budget gate, per-relay caps,
        live outages, non-AS granularity) transparently take the scalar
        loop.
        """
        if not obs_runtime.enabled:
            return self._assign_many(calls, options_per_call)
        t0 = perf_counter()
        with trace("assign_many", metric=self.config.metric, n=len(options_per_call)):
            choices = self._assign_many(calls, options_per_call)
        self._obs_assign_batch.observe(perf_counter() - t0)
        self._obs_batch_assigns.inc(len(choices))
        return choices

    def observe_many(self, calls, options, metrics_list) -> None:
        """Learn from a batch of outcomes, bit-identical to sequential
        ``observe`` over the same rows.

        ``metrics_list`` is a sequence of :class:`PathMetrics` or a
        prebuilt :class:`~repro.core.vector.MetricsBatch`.  Observes carry
        no RNG, so ordering only matters within one (pair, option) cell --
        which the grouped fold preserves exactly.  Configurations the
        vector path does not cover (greedy selector, coordinates, non-AS
        granularity) take the scalar loop.
        """
        if not obs_runtime.enabled:
            return self._observe_many(calls, options, metrics_list)
        t0 = perf_counter()
        with trace("observe_many", metric=self.config.metric, n=len(options)):
            self._observe_many(calls, options, metrics_list)
        self._obs_observe_batch.observe(perf_counter() - t0)
        self._obs_batch_observes.inc(len(options))
        return None

    def _vector_assign_eligible(self) -> bool:
        """Can assigns take the columnar fast path under this config?

        The vector path covers the paper-core configuration space at
        ``as`` granularity.  The operational extensions (budget gate,
        per-relay caps, live relay outages) and the greedy strawman
        selector have inherently per-call sequential semantics, so batches
        under them loop the scalar ``_assign`` -- same results, no
        speedup.
        """
        return (
            self.config.granularity == "as"
            and self.config.selector != "greedy"
            and self._budget_gate is None
            and self._load_tracker is None
            and not self._down_relays
        )

    def _vector_observe_eligible(self) -> bool:
        return (
            self.config.granularity == "as"
            and self.config.selector != "greedy"
            and self._coordinates is None
        )

    def _assign_many(self, calls, options_per_call) -> list[RelayOption]:
        batch = as_call_batch(calls)
        if len(batch.calls) != len(options_per_call):
            raise ValueError(
                f"assign_many got {len(batch.calls)} calls but "
                f"{len(options_per_call)} option lists"
            )
        if not batch.calls:
            return []
        if not self._vector_assign_eligible():
            scalar = self._assign
            return [scalar(c, o) for c, o in zip(batch.calls, options_per_call)]
        if not all(options_per_call):
            raise ValueError("assign() needs at least one option")
        return self._assign_vector(batch, options_per_call)

    def _assign_vector(
        self, batch: CallBatch, options_per_call
    ) -> list[RelayOption]:
        n = len(batch.calls)
        periods = np.floor_divide(batch.t_hours, self.config.refresh_hours).astype(
            np.int64
        )
        out: list[RelayOption] = [DIRECT] * n
        lens = list(map(len, options_per_call))
        # Split at refresh boundaries: each run of a constant period is one
        # vector segment, refreshed exactly when the scalar loop would.
        change = np.nonzero(np.diff(periods))[0] + 1
        bounds = [0, *change.tolist(), n]
        for s in range(len(bounds) - 1):
            i0, i1 = bounds[s], bounds[s + 1]
            period = int(periods[i0])
            if period != self._period:
                self._refresh(period)
            self._assign_segment(batch, options_per_call, lens, i0, i1, out)
        return out

    def _assign_segment(
        self, batch: CallBatch, options_per_call, lens: list, i0: int, i1: int, out: list
    ) -> None:
        """Vector-assign one constant-period slice ``[i0, i1)`` into ``out``."""
        src = batch.src_asn[i0:i1]
        dst = batch.dst_asn[i0:i1]
        blocked = batch.direct_blocked[i0:i1]
        m = i1 - i0
        # Dense-rank the endpoints so composite pair codes cannot overflow
        # regardless of raw ASN magnitudes; ranks preserve order, so the
        # canonical (lo, hi) orientation matches PairKeyer exactly.
        uv, ranks = np.unique(np.concatenate((src, dst)), return_inverse=True)
        sr, dr = ranks[:m], ranks[m:]
        lo = np.minimum(sr, dr)
        hi = np.maximum(sr, dr)
        flipped = sr > dr
        codes = (lo.astype(np.int64) * len(uv) + hi) * 2 + blocked
        groups, first, inv = np.unique(codes, return_index=True, return_inverse=True)
        forward = np.empty(len(groups), dtype=object)
        reverse = np.empty(len(groups), dtype=object)
        # Within an assign batch only observes could mutate bandit state
        # and there are none, so each (pair, blocked) group's exploit
        # choice is a constant: compute it once per group.  Groups are
        # visited in first-seen order so state creation matches the scalar
        # loop's dict insertion order (checkpoints and coverage_holes
        # expose that order).
        for g in np.argsort(first, kind="stable").tolist():
            j = int(first[g])
            pair_key = (int(uv[lo[j]]), int(uv[hi[j]]))
            direct_blocked = bool(blocked[j])
            state = self._pair_state.get((pair_key, direct_blocked))
            if state is None:
                state, _ = self._state_for(
                    pair_key, direct_blocked, options_per_call[i0 + j], bool(flipped[j])
                )
            choice = self._choose_exploit(state)
            forward[g] = choice
            reverse[g] = choice.reversed()
        segment = np.where(flipped, reverse[inv], forward[inv]).tolist()
        if self.config.epsilon > 0.0:
            # ε general exploration, drawn in blocks with scalar-identical
            # bitstream consumption (see vector.epsilon_explorations).
            # Exploring calls return their own option verbatim:
            # denormalize(normalize(o)) is the identity.
            hits = epsilon_explorations(self._rng, self.config.epsilon, lens[i0:i1])
            if hits:
                self.n_epsilon_explorations += len(hits)
                if obs_runtime.enabled:
                    self._obs_epsilon.inc(len(hits))
                for offset, pick in hits:
                    segment[offset] = options_per_call[i0 + offset][pick]
        out[i0:i1] = segment

    def _choose_exploit(self, state: _PairState) -> RelayOption:
        """The deterministic (non-ε) part of :meth:`_choose`."""
        if self.config.topk_mode == "argmin":
            if state.argmin_choice is not None:
                return state.argmin_choice
            return self._fallback(state.options)
        assert state.bandit is not None
        return state.bandit.choose()

    def _observe_many(self, calls, options, metrics_list) -> None:
        batch = as_call_batch(calls)
        metrics = as_metrics_batch(metrics_list)
        options = list(options)
        if not (len(batch.calls) == len(options) == len(metrics)):
            raise ValueError(
                f"observe_many got {len(batch.calls)} calls, {len(options)} "
                f"options and {len(metrics)} metric rows"
            )
        if not options:
            return
        if not self._vector_observe_eligible():
            scalar = self._observe
            for call, option, row in zip(batch.calls, options, metrics.iter_rows()):
                scalar(call, option, row)
            return
        self._observe_vector(batch, options, metrics)

    def _observe_vector(
        self, batch: CallBatch, options: list[RelayOption], metrics: MetricsBatch
    ) -> None:
        n = len(options)
        src = batch.src_asn
        dst = batch.dst_asn
        uv, ranks = np.unique(np.concatenate((src, dst)), return_inverse=True)
        sr, dr = ranks[:n], ranks[n:]
        lo = np.minimum(sr, dr)
        hi = np.maximum(sr, dr)
        flipped = sr > dr
        # Normalise by unique (option object, flip) combination rather than
        # per row: batches coming out of assign_many observe a handful of
        # shared option objects over and over, so the reversed() calls and
        # option hashing collapse to one per distinct combination.  The
        # per-value ``opt_index`` then merges object-distinct but
        # value-equal options into one id, so the grouped folds see
        # exactly the key equality the scalar dicts do.
        obj_ids = np.fromiter(map(id, options), dtype=np.int64, count=n)
        idcodes = obj_ids * 2 + flipped
        _, u_first, u_inv = np.unique(idcodes, return_index=True, return_inverse=True)
        opt_index: dict[RelayOption, int] = {}
        canonical: list[RelayOption] = []
        u_norm = np.empty(len(u_first), dtype=object)
        u_oid = np.empty(len(u_first), dtype=np.int64)
        for u, j in enumerate(u_first.tolist()):
            option = options[j]
            normalized = option.reversed() if flipped[j] else option
            oid = opt_index.get(normalized)
            if oid is None:
                oid = len(opt_index)
                opt_index[normalized] = oid
                canonical.append(normalized)
            u_norm[u] = canonical[oid]
            u_oid[u] = oid
        norm = u_norm[u_inv]
        opt_ids = u_oid[u_inv]
        pair_codes = lo.astype(np.int64) * len(uv) + hi
        windows = np.floor_divide(batch.t_hours, self.history.window_hours).astype(
            np.int64
        )
        wmin = int(windows.min())
        wspan = int(windows.max()) - wmin + 1
        n_opts = len(opt_index)
        values = metrics.values
        # --- History fold: group rows by (pair, window, option). -------
        hcodes = (pair_codes * wspan + (windows - wmin)) * n_opts + opt_ids
        hgroups, hfirst, hinv = np.unique(
            hcodes, return_index=True, return_inverse=True
        )
        by_row = np.argsort(hinv, kind="stable")
        starts = np.searchsorted(hinv[by_row], np.arange(len(hgroups)))
        ends = np.append(starts[1:], n)
        history = self.history
        pair_keys: dict[int, tuple] = {}
        # First-seen group order keeps window-bucket dict insertion order
        # identical to the scalar loop; downstream iteration (tomography
        # fits, population priors, serialisation) observes that order, so
        # it is part of the bit-equivalence contract.
        for g in np.argsort(hfirst, kind="stable").tolist():
            j = int(hfirst[g])
            code = int(pair_codes[j])
            pair_key = pair_keys.get(code)
            if pair_key is None:
                pair_key = (int(uv[lo[j]]), int(uv[hi[j]]))
                pair_keys[code] = pair_key
            rows = by_row[starts[g] : ends[g]]
            history.add_group(pair_key, norm[j], int(windows[j]), values[rows])
        # --- Bandit fold: group rows by (pair, blocked, option). -------
        # Per-arm cost sums fold in batch order; cross-arm interleaving
        # commutes (sums and maxima), so grouping preserves equality.
        blocked = batch.direct_blocked
        scodes = (pair_codes * 2 + blocked) * n_opts + opt_ids
        sgroups, sfirst, sinv = np.unique(
            scodes, return_index=True, return_inverse=True
        )
        s_by_row = np.argsort(sinv, kind="stable")
        s_starts = np.searchsorted(sinv[s_by_row], np.arange(len(sgroups)))
        s_ends = np.append(s_starts[1:], n)
        costs: np.ndarray | None = None
        states: dict[tuple[int, bool], _PairState | None] = {}
        for g in np.argsort(sfirst, kind="stable").tolist():
            j = int(sfirst[g])
            code = int(pair_codes[j])
            direct_blocked = bool(blocked[j])
            state_cache_key = (code, direct_blocked)
            if state_cache_key in states:
                state = states[state_cache_key]
            else:
                state = self._pair_state.get((pair_keys[code], direct_blocked))
                states[state_cache_key] = state
            if state is None or state.bandit is None:
                continue
            arm = norm[j]
            if not state.bandit.has_arm(arm):
                continue
            if costs is None:
                costs = self._cost.call_cost_many(values)
            rows = s_by_row[s_starts[g] : s_ends[g]]
            state.bandit.update_many(arm, costs[rows].tolist())

    # ------------------------------------------------------------------
    # Relay outages (operator-marked, graceful degradation)
    # ------------------------------------------------------------------

    @property
    def down_relays(self) -> frozenset[int]:
        """Relay ids currently marked down (assign avoids them)."""
        return self._down_relays

    def set_down_relays(self, relay_ids) -> None:
        """Replace the set of relays assign must route around."""
        self._down_relays = frozenset(int(r) for r in relay_ids)

    def _option_down(self, option: RelayOption) -> bool:
        return any(rid in self._down_relays for rid in option.relay_ids())

    def _avoid_down(
        self, state: _PairState, norm_options: list[RelayOption], choice: RelayOption
    ) -> RelayOption:
        """Repick when the selected option rides a down relay.

        Walks the pair's top-k in predicted order first, then the full
        candidate list; if *every* option is down the original choice is
        returned (nothing better exists, and the realised blackhole metrics
        will teach the bandit the same lesson).
        """
        if not self._down_relays or not self._option_down(choice):
            return choice
        self.n_outage_repicks += 1
        if obs_runtime.enabled:
            self._obs_repicks.inc()
        for candidate in state.topk:
            if candidate != choice and not self._option_down(candidate):
                return candidate
        for candidate in norm_options:
            if candidate != choice and not self._option_down(candidate):
                return candidate
        return choice

    # ------------------------------------------------------------------
    # Stages 2-3: periodic refresh
    # ------------------------------------------------------------------

    def refresh(self, t_hours: float) -> bool:
        """Roll the window over to the period covering ``t_hours``.

        The per-call paths do this lazily; controller loops (and fleet
        wrappers like :class:`~repro.core.sharding.ShardedPolicy`) call
        it explicitly so idle policies still retire stale predictors.
        Returns True when a refresh actually ran (the period changed).
        """
        period = int(t_hours // self.config.refresh_hours)
        if period == self._period:
            return False
        self._refresh(period)
        return True

    def _refresh(self, period: int) -> None:
        with trace("refresh", metric=self.config.metric, period=period):
            self._do_refresh(period)
        if obs_runtime.enabled:
            self._obs_refreshes.inc()

    def _do_refresh(self, period: int) -> None:
        self._period = period
        self._pair_state = {}
        self.n_refreshes += 1
        window = period - 1
        if window < 0:
            self._predictor = None
            return
        tomography: TomographyModel | None = None
        if self.config.use_tomography and self._inter_relay is not None:
            tomography = TomographyModel.fit(
                (
                    ((key[0][0], key[0][1]), key[1], stat)
                    for key, stat in self.history.window_items(window)
                ),
                self._inter_relay,
            )
        self._predictor = Predictor(
            self.history,
            window,
            tomography=tomography,
            coordinates=self._coordinates,
            min_direct_samples=self.config.min_direct_samples,
        )
        # Only the window feeding the current predictor is ever read again.
        self.history.prune_before(window)

    def _state_for(
        self,
        pair_key: Hashable,
        direct_blocked: bool,
        options: list[RelayOption],
        flipped: bool = False,
    ) -> tuple[_PairState, list[RelayOption]]:
        """The pair's state, and ``options`` (a call's menu in call
        orientation) in store orientation.

        A warm state hands back the normalised menu it cached for this
        orientation when the call's menu equals the cached one -- for the
        same option objects list equality is a pointer walk -- so only a
        new orientation or a changed menu pays for ``reversed()``.
        """
        # NAT-blocked calls see a direct-less option set, so they get their
        # own pruning/bandit state alongside the pair's regular one.
        state_key = (pair_key, direct_blocked)
        state = self._pair_state.get(state_key)
        if state is not None:
            menu = state.menus.get(flipped)
            if menu is not None and menu[0] == options:
                return state, menu[1]
        # Both lists are private copies: a caller may reuse its menu list.
        if flipped:
            norm_options = [o.reversed() for o in options]
            called = list(options)
        else:
            norm_options = called = list(options)
        if state is not None:
            state.menus[flipped] = (called, norm_options)
            return state, norm_options
        predictions: dict[RelayOption, Prediction] = {}
        if self._predictor is not None:
            with trace("predict", n_options=len(norm_options)):
                predictions = self._predictor.predict_all(pair_key, norm_options)  # type: ignore[arg-type]
        with trace("prune", mode=self.config.topk_mode):
            topk = self._prune(predictions, norm_options)
        bandit: UCB1Explorer | None = None
        argmin_choice: RelayOption | None = None
        if self.config.topk_mode == "argmin":
            if predictions:
                argmin_choice = min(
                    predictions, key=lambda o: self._cost.predicted(predictions[o])
                )
        elif self.config.selector == "ucb":
            mode = self.config.ucb_mode if predictions else "classic"
            bandit = UCB1Explorer.from_cost_model(
                topk,
                predictions,
                self._cost,
                exploration_coef=self.config.exploration_coef,
                mode=mode,
            )
        state = _PairState(
            options=norm_options,
            topk=topk,
            predictions=predictions,
            bandit=bandit,
            benefit=self._benefit(predictions),
            argmin_choice=argmin_choice,
            menus={flipped: (called, norm_options)},
        )
        self._pair_state[state_key] = state
        return state, norm_options

    def _prune(
        self,
        predictions: dict[RelayOption, Prediction],
        norm_options: list[RelayOption],
    ) -> list[RelayOption]:
        mode = self.config.topk_mode
        if mode == "all" or len(predictions) < 2:
            # Nothing (or not enough) to prune with: candidate set is all
            # options, ordered with direct first (cold-start exploration).
            return list(norm_options)
        if mode == "dynamic":
            return dynamic_top_k_cost(predictions, self._cost, max_k=self.config.max_k)
        if mode == "fixed":
            return fixed_top_k_cost(predictions, self._cost, self.config.fixed_k)
        # argmin: pruning is irrelevant, selection happens directly.
        return fixed_top_k_cost(predictions, self._cost, 1)

    @staticmethod
    def _fallback(norm_options: list[RelayOption]) -> RelayOption:
        """The do-nothing choice: the default path when it is on offer,
        else the first offered option (NAT-blocked calls have no direct)."""
        if DIRECT in norm_options:
            return DIRECT
        return norm_options[0]

    def _benefit(self, predictions: dict[RelayOption, Prediction]) -> float | None:
        """Predicted gain of the best relayed option over the direct path."""
        direct = predictions.get(DIRECT)
        if direct is None:
            return None
        relayed = [
            self._cost.predicted(p) for o, p in predictions.items() if o.is_relayed
        ]
        if not relayed:
            return None
        return self._cost.predicted(direct) - min(relayed)

    # ------------------------------------------------------------------
    # Stage 4: per-call selection
    # ------------------------------------------------------------------

    def _choose(self, state: _PairState, norm_options: list[RelayOption]) -> RelayOption:
        # Stage 4b: ε general exploration over ALL relaying options, which
        # keeps top-k honest under non-stationary performance (§4.5).
        if self.config.epsilon > 0.0 and self._rng.random() < self.config.epsilon:
            self.n_epsilon_explorations += 1
            if obs_runtime.enabled:
                self._obs_epsilon.inc()
            return norm_options[int(self._rng.integers(len(norm_options)))]
        if self.config.topk_mode == "argmin":
            if state.argmin_choice is not None:
                return state.argmin_choice
            return self._fallback(state.options)
        if self.config.selector == "greedy":
            return self._choose_greedy(state)
        assert state.bandit is not None
        if obs_runtime.enabled:
            with trace("bandit", k=len(state.topk)):
                return state.bandit.choose()
        return state.bandit.choose()

    def _divert_overloaded(
        self, state: _PairState, norm_options: list[RelayOption], choice: RelayOption
    ) -> RelayOption:
        """Per-relay cap exceeded: fall back to the best uncongested live option.

        Walks the pair's top-k in predicted order and returns the first
        option that rides no down relay and whose relays are all under the
        cap; the do-nothing fallback (the direct path, never congested in
        this model, when offered) is the last resort, routed around down
        relays like any other pick.  The cap gives way to outages.
        """
        assert self._load_tracker is not None
        down = self._down_relays
        for candidate in state.topk:
            if candidate == choice or (down and self._option_down(candidate)):
                continue
            if not candidate.is_relayed or not self._load_tracker.would_exceed(candidate):
                return candidate
        return self._avoid_down(state, norm_options, self._fallback(state.options))

    def _choose_greedy(self, state: _PairState) -> RelayOption:
        """ε-greedy over the candidate set on empirical means (Strawman II)."""
        candidates = state.topk
        if self._rng.random() < self.config.greedy_epsilon:
            return candidates[int(self._rng.integers(len(candidates)))]
        tried = [c for c in candidates if state.greedy_counts.get(c, 0) > 0]
        if not tried:
            return candidates[int(self._rng.integers(len(candidates)))]
        return min(
            tried, key=lambda c: state.greedy_sums[c] / state.greedy_counts[c]
        )

    # ------------------------------------------------------------------
    # Checkpointing (controller restarts, §7 operational concerns)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-compatible checkpoint of everything worth surviving a crash.

        v2 persists the windowed history *and* the current period's per-pair
        bandit/greedy state, so a restored controller resumes mid-period
        with the same top-k and the same exploration counts instead of
        relearning from scratch (§7 operational concerns).

        Every mention of an option or pair key is one shared object
        (:class:`~repro.core.history.CheckpointCodec`), so the returned tree
        is read-only.
        """
        codec = CheckpointCodec()
        encode_option = codec.encode_option
        pair_states = []
        for (pair_key, direct_blocked), state in self._pair_state.items():
            entry: dict = {
                "pair": codec.encode_pair(pair_key),
                "direct_blocked": bool(direct_blocked),
                "options": [encode_option(o) for o in state.options],
            }
            if state.bandit is not None:
                per_arm = state.bandit.export_state()
                entry["bandit"] = {
                    "arms": [encode_option(a) for a in state.bandit.arms],
                    "counts": [per_arm[a][0] for a in state.bandit.arms],
                    "cost_sums": [per_arm[a][1] for a in state.bandit.arms],
                    "max_seen_cost": state.bandit.max_seen_cost,
                }
            if state.greedy_counts:
                greedy_opts = list(state.greedy_counts)
                entry["greedy"] = {
                    "options": [encode_option(o) for o in greedy_opts],
                    "counts": [state.greedy_counts[o] for o in greedy_opts],
                    "sums": [state.greedy_sums.get(o, 0.0) for o in greedy_opts],
                }
            pair_states.append(entry)
        return {
            "format": "via-policy-state-v2",
            "metric": self.config.metric,
            "period": self._period,
            "n_refreshes": self.n_refreshes,
            # The RNG position matters for exact crash recovery: epsilon
            # exploration draws from it per assignment, so a restored
            # policy with a fresh RNG would diverge from its uninterrupted
            # twin on the very next call.  (Optional key: v2 checkpoints
            # without it still load, with a reseeded RNG.)
            "rng": self._rng.bit_generator.state,
            "n_epsilon_explorations": self.n_epsilon_explorations,
            "history": history_to_dict(self.history, codec),
            "pair_states": pair_states,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a checkpoint produced by :meth:`state_dict`.

        Accepts both the v1 (history-only) and v2 (history + bandit)
        formats.  For v2, predictor/tomography and per-pair pruning are
        rebuilt deterministically from the restored history, then the
        saved exploration counts are overlaid onto the fresh bandits.
        Equal option payloads decode to one shared option.
        """
        from repro.core.history import _decode_key

        codec = CheckpointCodec()
        decode_option = codec.decode_option
        fmt = payload.get("format")
        if fmt not in ("via-policy-state-v1", "via-policy-state-v2"):
            raise ValueError(f"unrecognised checkpoint format: {fmt!r}")
        if payload.get("metric") != self.config.metric:
            raise ValueError(
                f"checkpoint optimises {payload.get('metric')!r}, "
                f"policy optimises {self.config.metric!r}"
            )
        self.history = history_from_dict(payload["history"], codec)
        self._period = -1  # force a refresh on the next call
        self._pair_state = {}
        self._predictor = None
        rng_state = payload.get("rng")
        if rng_state is not None:
            self._rng.bit_generator.state = rng_state
        if "n_epsilon_explorations" in payload:
            self.n_epsilon_explorations = int(payload["n_epsilon_explorations"])
        if fmt == "via-policy-state-v1":
            return
        period = int(payload.get("period", -1))
        if period < 0:
            return
        saved_refreshes = payload.get("n_refreshes")
        self._refresh(period)
        for entry in payload.get("pair_states", ()):
            pair_key = (_decode_key(entry["pair"][0]), _decode_key(entry["pair"][1]))
            options = [decode_option(o) for o in entry["options"]]
            state, _ = self._state_for(pair_key, bool(entry["direct_blocked"]), options)
            bandit_data = entry.get("bandit")
            if bandit_data is not None and state.bandit is not None:
                arms = [decode_option(o) for o in bandit_data["arms"]]
                state.bandit.restore_state(
                    {
                        arm: (int(count), float(cost_sum))
                        for arm, count, cost_sum in zip(
                            arms, bandit_data["counts"], bandit_data["cost_sums"]
                        )
                    },
                    max_seen_cost=float(bandit_data.get("max_seen_cost", 0.0)),
                )
            greedy = entry.get("greedy")
            if greedy:
                for opt_data, count, total in zip(
                    greedy["options"], greedy["counts"], greedy["sums"]
                ):
                    option = decode_option(opt_data)
                    state.greedy_counts[option] = int(count)
                    state.greedy_sums[option] = float(total)
        if saved_refreshes is not None:
            self.n_refreshes = int(saved_refreshes)

    def save_state(self, path) -> None:
        """Checkpoint learned state to ``path`` (JSON); see :meth:`state_dict`."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.state_dict()), encoding="utf-8")

    def load_state(self, path) -> None:
        """Restore a checkpoint written by :meth:`save_state`."""
        import json
        from pathlib import Path

        self.load_state_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """The current refresh period index (-1 before the first call)."""
        return self._period

    def coverage_holes(self):
        """(pair_key, option) combinations with no prediction this period.

        These are the "holes" §7 of the paper proposes filling with active
        measurements: options the predictor could reach neither through
        direct history nor through tomography.  Yields pairs in the order
        they were first seen this period.
        """
        for (pair_key, _direct_blocked), state in self._pair_state.items():
            for option in state.options:
                if option not in state.predictions:
                    yield pair_key, option

    @property
    def relayed_fraction(self) -> float | None:
        """Fraction of calls relayed so far (only tracked under a budget)."""
        if self._budget_gate is None:
            return None
        return self._budget_gate.relayed_fraction


def make_policy(
    config: ViaConfig,
    *,
    inter_relay: InterRelayLookup | None = None,
    name: str | None = None,
    registry: MetricsRegistry | None = None,
) -> ViaPolicy:
    """Convenience constructor mirroring :class:`ViaPolicy`."""
    return ViaPolicy(config, inter_relay=inter_relay, name=name, registry=registry)
