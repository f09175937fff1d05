"""Differential equivalence harness: oracle vs production ``ViaPolicy``.

:class:`OracleViaPolicy` restates Algorithm 1's control flow in the
plainest possible terms, delegating the two audited algorithms to their
oracles -- :func:`repro.verify.oracles.oracle_dynamic_top_k` for pruning
and :class:`repro.verify.oracles.OracleBandit` for selection -- while
sharing only the *input-producing* machinery (call keying, the windowed
history store, the predictor) with production.  Both policies consume an
identically seeded RNG with an identical draw order, so every assignment
must match exactly, call for call.

:func:`run_differential` replays a randomized call stream through both
side by side.  The first mismatch raises :class:`DivergenceError`
carrying full state context: the step, the call, both candidate sets,
both bandit states, and the predictions that fed them -- everything
needed to reproduce and localise the disagreement from the seed alone.

When tomography is enabled, the oracle additionally audits every
tomography-sourced prediction against the Figure-11 stitching oracle,
so a drift in :meth:`repro.core.tomography.TomographyModel.predict`
surfaces as a divergence too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.costs import CostModel, make_cost_model
from repro.core.history import CallHistory
from repro.core.keys import PairKeyer
from repro.core.policy import ViaConfig, ViaPolicy
from repro.core.predictor import Prediction, Predictor
from repro.core.tomography import InterRelayLookup, TomographyModel
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.telephony.call import Call
from repro.verify.oracles import (
    OracleBandit,
    oracle_dynamic_top_k,
    oracle_stitch,
    oracle_topk_normalizer,
)

__all__ = [
    "DifferentialReport",
    "DivergenceError",
    "OracleViaPolicy",
    "VectorizedViaPolicy",
    "random_config",
    "run_differential",
]


class DivergenceError(AssertionError):
    """Oracle and production disagreed; ``context`` localises where."""

    def __init__(self, message: str, context: dict) -> None:
        super().__init__(message)
        self.context = context


@dataclass(slots=True)
class _OracleState:
    """Per-(pair, period) oracle state: candidates, pruning, bandit."""

    options: list[RelayOption]
    topk: list[RelayOption]
    predictions: dict[RelayOption, Prediction]
    bandit: OracleBandit | None
    argmin_choice: RelayOption | None = None
    greedy_counts: dict[RelayOption, int] = field(default_factory=dict)
    greedy_sums: dict[RelayOption, float] = field(default_factory=dict)


class OracleViaPolicy:
    """Algorithm 1 restated plainly, built on the verification oracles.

    Supports the paper's core configuration space: every ``topk_mode``,
    both selectors, both UCB normalisation modes, epsilon general
    exploration, and optional tomography.  The operational extensions
    (budget gate, per-relay caps) are out of oracle scope
    and rejected up front -- they are exercised by their own suites.
    """

    def __init__(
        self, config: ViaConfig, *, inter_relay: InterRelayLookup | None = None
    ) -> None:
        if config.budget < 1.0:
            raise ValueError("oracle scope excludes the budget gate")
        if config.per_relay_cap is not None:
            raise ValueError("oracle scope excludes per-relay load caps")
        self.config = config
        self.name = f"oracle-via[{config.metric}]"
        self._cost: CostModel = make_cost_model(config.metric)
        self._inter_relay = inter_relay
        self._keyer = PairKeyer(config.granularity)
        self._rng = np.random.default_rng(config.seed)
        self.history = CallHistory(window_hours=config.refresh_hours)
        self._period = -1
        self._predictor: Predictor | None = None
        self._tomography: TomographyModel | None = None
        self._states: dict[Hashable, _OracleState] = {}
        self.n_refreshes = 0
        self.n_epsilon_explorations = 0

    # -- Algorithm 1, stage by stage -----------------------------------

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        if not options:
            raise ValueError("assign() needs at least one option")
        period = int(call.t_hours // self.config.refresh_hours)
        if period != self._period:
            self._refresh(period)
        view = self._keyer.view(call)
        norm_options = [view.normalize(o) for o in options]
        state = self._state_for(view.pair_key, call.direct_blocked, norm_options)
        return view.denormalize(self._choose(state, norm_options))

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        view = self._keyer.view(call)
        norm = view.normalize(option)
        self.history.add(view.pair_key, norm, call.t_hours, metrics)
        state = self._states.get((view.pair_key, call.direct_blocked))
        if state is None:
            return
        cost = self._cost.call_cost(metrics)
        if state.bandit is not None and norm in state.bandit.counts:
            state.bandit.update(norm, cost)
        if self.config.selector == "greedy":
            state.greedy_counts[norm] = state.greedy_counts.get(norm, 0) + 1
            state.greedy_sums[norm] = state.greedy_sums.get(norm, 0.0) + cost

    def _refresh(self, period: int) -> None:
        self._period = period
        self._states = {}
        self.n_refreshes += 1
        window = period - 1
        if window < 0:
            self._predictor = None
            self._tomography = None
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
        self._tomography = tomography
        self._predictor = Predictor(
            self.history,
            window,
            tomography=tomography,
            min_direct_samples=self.config.min_direct_samples,
        )
        self.history.prune_before(window)

    def _state_for(
        self, pair_key: Hashable, direct_blocked: bool, norm_options: list[RelayOption]
    ) -> _OracleState:
        state_key = (pair_key, direct_blocked)
        state = self._states.get(state_key)
        if state is not None:
            return state
        predictions: dict[RelayOption, Prediction] = {}
        if self._predictor is not None:
            predictions = self._predictor.predict_all(pair_key, norm_options)  # type: ignore[arg-type]
            if self._tomography is not None:
                self._audit_stitching(pair_key, norm_options)
        topk = self._prune(predictions, norm_options)
        bandit: OracleBandit | None = None
        argmin_choice: RelayOption | None = None
        if self.config.topk_mode == "argmin":
            if predictions:
                argmin_choice = min(
                    predictions, key=lambda o: self._cost.predicted(predictions[o])
                )
        elif self.config.selector == "ucb":
            mode = self.config.ucb_mode if predictions else "classic"
            bandit = OracleBandit(
                topk,
                normalizer=oracle_topk_normalizer(topk, predictions, self._cost),
                exploration_coef=self.config.exploration_coef,
                mode=mode,
            )
        state = _OracleState(
            options=list(norm_options),
            topk=topk,
            predictions=predictions,
            bandit=bandit,
            argmin_choice=argmin_choice,
        )
        self._states[state_key] = state
        return state

    def _prune(
        self,
        predictions: dict[RelayOption, Prediction],
        norm_options: list[RelayOption],
    ) -> list[RelayOption]:
        mode = self.config.topk_mode
        if mode == "all" or len(predictions) < 2:
            return list(norm_options)
        if mode == "dynamic":
            return oracle_dynamic_top_k(
                predictions, self._cost, max_k=self.config.max_k
            )
        ranked = sorted(
            predictions, key=lambda o: self._cost.predicted(predictions[o])
        )
        if mode == "fixed":
            return ranked[: self.config.fixed_k]
        return ranked[:1]  # argmin

    def _choose(self, state: _OracleState, norm_options: list[RelayOption]) -> RelayOption:
        # The RNG draw order mirrors production exactly: one uniform for
        # the epsilon coin (only when epsilon > 0), one integer for the
        # exploration pick, then the greedy selector's own draws.
        if self.config.epsilon > 0.0 and self._rng.random() < self.config.epsilon:
            self.n_epsilon_explorations += 1
            return norm_options[int(self._rng.integers(len(norm_options)))]
        if self.config.topk_mode == "argmin":
            if state.argmin_choice is not None:
                return state.argmin_choice
            return self._fallback(state.options)
        if self.config.selector == "greedy":
            return self._choose_greedy(state)
        assert state.bandit is not None
        return state.bandit.choose()

    def _choose_greedy(self, state: _OracleState) -> RelayOption:
        candidates = state.topk
        if self._rng.random() < self.config.greedy_epsilon:
            return candidates[int(self._rng.integers(len(candidates)))]
        tried = [c for c in candidates if state.greedy_counts.get(c, 0) > 0]
        if not tried:
            return candidates[int(self._rng.integers(len(candidates)))]
        return min(tried, key=lambda c: state.greedy_sums[c] / state.greedy_counts[c])

    @staticmethod
    def _fallback(norm_options: list[RelayOption]) -> RelayOption:
        if DIRECT in norm_options:
            return DIRECT
        return norm_options[0]

    def _audit_stitching(
        self, pair_key: Hashable, norm_options: list[RelayOption]
    ) -> None:
        """Check every stitched path against the Figure-11 oracle."""
        model = self._tomography
        assert model is not None
        side_s, side_d = pair_key  # type: ignore[misc]
        for option in norm_options:
            produced = model.predict(side_s, side_d, option)
            expected = oracle_stitch(
                model._estimates, model._sems, self._inter_relay, side_s, side_d, option
            )
            if (produced is None) != (expected is None):
                raise DivergenceError(
                    "tomography stitching availability diverged from oracle",
                    {
                        "pair": repr(pair_key),
                        "option": str(option),
                        "production": repr(produced),
                        "oracle": repr(expected),
                    },
                )
            if produced is None or expected is None:
                continue
            if not (
                np.allclose(produced[0], expected[0], rtol=1e-9, atol=1e-12)
                and np.allclose(produced[1], expected[1], rtol=1e-9, atol=1e-12)
            ):
                raise DivergenceError(
                    "tomography stitching values diverged from oracle",
                    {
                        "pair": repr(pair_key),
                        "option": str(option),
                        "production_mean": produced[0].tolist(),
                        "oracle_mean": expected[0].tolist(),
                        "production_sem": produced[1].tolist(),
                        "oracle_sem": expected[1].tolist(),
                    },
                )


# ----------------------------------------------------------------------
# The randomized stream driver
# ----------------------------------------------------------------------


@dataclass(slots=True)
class DifferentialReport:
    """One differential run: what was replayed and that it agreed."""

    seed: int
    config: ViaConfig
    n_steps: int = 0
    n_assigns: int = 0
    n_observes: int = 0
    n_refreshes: int = 0
    n_epsilon: int = 0


_METRIC_CHOICES = ("rtt_ms", "loss_rate", "jitter_ms", "mos")
_TOPK_CHOICES = ("dynamic", "dynamic", "dynamic", "fixed", "argmin", "all")
_SELECTOR_CHOICES = ("ucb", "ucb", "ucb", "greedy")
_UCB_MODE_CHOICES = ("via", "via", "classic")
_EPSILON_CHOICES = (0.0, 0.03, 0.2)
_MAX_K_CHOICES = (None, 3, 6)


def random_config(rng: np.random.Generator) -> ViaConfig:
    """A random point in the oracle-supported configuration space."""
    return ViaConfig(
        metric=str(rng.choice(_METRIC_CHOICES)),
        topk_mode=str(rng.choice(_TOPK_CHOICES)),
        selector=str(rng.choice(_SELECTOR_CHOICES)),
        ucb_mode=str(rng.choice(_UCB_MODE_CHOICES)),
        epsilon=float(rng.choice(_EPSILON_CHOICES)),
        greedy_epsilon=float(rng.choice((0.05, 0.2))),
        max_k=_MAX_K_CHOICES[int(rng.integers(len(_MAX_K_CHOICES)))],
        fixed_k=int(rng.integers(1, 4)),
        min_direct_samples=int(rng.choice((1, 3))),
        refresh_hours=float(rng.choice((6.0, 24.0))),
        use_tomography=bool(rng.integers(2)),
        exploration_coef=float(rng.choice((0.01, 0.1))),
        seed=int(rng.integers(1 << 31)),
    )


def _make_inter_relay(n_relays: int) -> InterRelayLookup:
    """A deterministic backbone model: cheap, symmetric, id-derived."""

    def lookup(r1: int, r2: int) -> PathMetrics:
        lo, hi = sorted((r1, r2))
        return PathMetrics(
            rtt_ms=5.0 + 3.0 * ((lo + hi) % n_relays),
            loss_rate=0.0005 * (1 + (lo * 7 + hi) % 3),
            jitter_ms=0.5 + 0.25 * ((lo * 3 + hi) % 4),
        )

    return lookup


def _pair_options(rng: np.random.Generator, n_relays: int) -> list[RelayOption]:
    """Direct + every bounce + a couple of random transits."""
    options: list[RelayOption] = [DIRECT]
    options.extend(RelayOption.bounce(r) for r in range(n_relays))
    for _ in range(2):
        r1, r2 = rng.choice(n_relays, size=2, replace=False)
        transit = RelayOption.transit(int(r1), int(r2))
        if transit not in options:
            options.append(transit)
    return options


class VectorizedViaPolicy(ViaPolicy):
    """The vector candidate: scalar calls become batches of one.

    Passed as ``production_factory`` so every per-call step of a stream
    runs the columnar ``assign_many``/``observe_many`` implementation and
    is held to the same oracle as the scalar path -- same choices, same
    RNG draw order, same learned state.
    """

    def assign(self, call: Call, options: list[RelayOption]) -> RelayOption:
        return self.assign_many([call], [options])[0]

    def observe(self, call: Call, option: RelayOption, metrics: PathMetrics) -> None:
        self.observe_many([call], [option], [metrics])


def run_differential(
    config: ViaConfig | None = None,
    *,
    n_steps: int = 200,
    seed: int = 0,
    n_pairs: int = 6,
    n_relays: int = 4,
    production_factory=ViaPolicy,
) -> DifferentialReport:
    """Replay one randomized call stream through oracle and production.

    Everything derives from ``seed``: the configuration (when none is
    given), the call stream, and the latent per-path performance.  Raises
    :class:`DivergenceError` on the first disagreement; otherwise returns
    the :class:`DifferentialReport`.  ``production_factory`` exists so the
    harness can prove it *detects* divergence (tests swap in a policy with
    a planted bug) and can audit the vector path
    (:class:`VectorizedViaPolicy`).
    """
    stream_rng = np.random.default_rng(seed)
    if config is None:
        config = random_config(stream_rng)
    inter_relay = _make_inter_relay(n_relays)
    production = production_factory(
        config, inter_relay=inter_relay, registry=MetricsRegistry()
    )
    oracle = OracleViaPolicy(config, inter_relay=inter_relay)

    pairs = []
    for i in range(n_pairs):
        src_asn, dst_asn = 100 + 2 * i, 101 + 2 * i + int(stream_rng.integers(3))
        pairs.append(
            {
                "src_asn": src_asn,
                "dst_asn": dst_asn,
                "src_country": f"C{src_asn % 5}",
                "dst_country": f"C{dst_asn % 5}",
                "options": _pair_options(stream_rng, n_relays),
                "blocked": bool(stream_rng.random() < 0.15),
                # Latent mean RTT per option index, the workload's ground truth.
                "base_rtt": 40.0 + stream_rng.uniform(0.0, 160.0, size=16),
            }
        )

    report = DifferentialReport(seed=seed, config=config)
    t_hours = 0.0
    for step in range(n_steps):
        t_hours += float(stream_rng.exponential(config.refresh_hours / 40.0))
        pair = pairs[int(stream_rng.integers(n_pairs))]
        blocked = pair["blocked"] and bool(stream_rng.random() < 0.5)
        options = list(pair["options"])
        if blocked:
            options = [o for o in options if o.is_relayed]
        call = Call(
            call_id=step + 1,
            t_hours=t_hours,
            src_asn=pair["src_asn"],
            dst_asn=pair["dst_asn"],
            src_country=pair["src_country"],
            dst_country=pair["dst_country"],
            src_user=pair["src_asn"] * 10,
            dst_user=pair["dst_asn"] * 10,
            direct_blocked=blocked,
        )
        produced = production.assign(call, options)
        expected = oracle.assign(call, options)
        report.n_assigns += 1
        if produced != expected:
            raise DivergenceError(
                f"assignment diverged at step {step}: "
                f"production={produced} oracle={expected}",
                _divergence_context(
                    step, call, config, seed, produced, expected, production, oracle
                ),
            )
        idx = options.index(produced)
        rtt = float(pair["base_rtt"][idx] * stream_rng.uniform(0.85, 1.15))
        metrics = PathMetrics(
            rtt_ms=rtt,
            loss_rate=float(stream_rng.uniform(0.0, 0.03)),
            jitter_ms=float(stream_rng.uniform(0.5, 15.0)),
        )
        production.observe(call, produced, metrics)
        oracle.observe(call, produced, metrics)
        report.n_observes += 1
        report.n_steps += 1
    if production.n_refreshes != oracle.n_refreshes:
        raise DivergenceError(
            f"refresh counts diverged: production={production.n_refreshes} "
            f"oracle={oracle.n_refreshes}",
            {"seed": seed, "config": repr(config)},
        )
    if production.n_epsilon_explorations != oracle.n_epsilon_explorations:
        raise DivergenceError(
            "epsilon exploration counts diverged: "
            f"production={production.n_epsilon_explorations} "
            f"oracle={oracle.n_epsilon_explorations}",
            {"seed": seed, "config": repr(config)},
        )
    report.n_refreshes = production.n_refreshes
    report.n_epsilon = production.n_epsilon_explorations
    return report


def _divergence_context(
    step: int,
    call: Call,
    config: ViaConfig,
    seed: int,
    produced: RelayOption,
    expected: RelayOption,
    production: ViaPolicy,
    oracle: OracleViaPolicy,
) -> dict:
    """Full state context around a divergence, JSON-representable."""
    view = production._keyer.view(call)
    state_key = (view.pair_key, call.direct_blocked)
    prod_state = production._pair_state.get(state_key)
    oracle_state = oracle._states.get(state_key)
    context = {
        "seed": seed,
        "step": step,
        "config": repr(config),
        "call": call.to_dict(),
        "pair_key": repr(view.pair_key),
        "production_choice": str(produced),
        "oracle_choice": str(expected),
    }
    if prod_state is not None:
        context["production_topk"] = [str(o) for o in prod_state.topk]
        if prod_state.bandit is not None:
            context["production_bandit"] = prod_state.bandit.snapshot()
    if oracle_state is not None:
        context["oracle_topk"] = [str(o) for o in oracle_state.topk]
        if oracle_state.bandit is not None:
            context["oracle_bandit"] = oracle_state.bandit.snapshot()
        context["predictions"] = {
            str(o): {
                "mean": p.mean.tolist(),
                "sem": p.sem.tolist(),
                "n": p.n,
                "source": p.source,
            }
            for o, p in oracle_state.predictions.items()
        }
    return context
