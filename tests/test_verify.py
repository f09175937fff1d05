"""The conformance verification plane: oracles, differential, crash sweep.

These are the plane's own tests: the oracles must agree with production
decision-for-decision on randomized inputs, the differential harness must
both pass on the real policy and *detect* a planted bug, and the crash
sweep must pass on a real log and flag a tampered expectation.  The
heavyweight acceptance run lives behind ``make test-verify``
(``repro verify --budget full``); everything here stays fast.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.bandit import UCB1Explorer
from repro.core.costs import make_cost_model
from repro.core.history import CallHistory
from repro.core.policy import ViaConfig, ViaPolicy
from repro.core.predictor import Prediction
from repro.core.tomography import TomographyModel
from repro.core.topk import dynamic_top_k_cost
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption
from repro.obs.metrics import MetricsRegistry
from repro.verify import (
    DivergenceError,
    OracleBandit,
    OracleViaPolicy,
    RecordedLog,
    VerifyBudget,
    crash_point_sweep,
    oracle_dynamic_top_k,
    oracle_stitch,
    oracle_topk_normalizer,
    random_config,
    record_workload,
    run_differential,
    run_verify,
)

pytestmark = pytest.mark.verify

OPTION_POOL = [DIRECT] + [RelayOption.bounce(r) for r in range(5)] + [
    RelayOption.transit(0, 1),
    RelayOption.transit(2, 3),
]


def _random_predictions(rng, n: int) -> dict[RelayOption, Prediction]:
    picks = rng.choice(len(OPTION_POOL), size=n, replace=False)
    return {
        OPTION_POOL[int(i)]: Prediction(
            mean=np.array([
                float(rng.uniform(10, 300)),
                float(rng.uniform(0, 0.05)),
                float(rng.uniform(0, 30)),
            ]),
            sem=np.array([
                float(rng.uniform(0.1, 40)),
                float(rng.uniform(0, 0.01)),
                float(rng.uniform(0, 5)),
            ]),
            n=int(rng.integers(0, 40)),
            source="history",
        )
        for i in picks
    }


class TestDynamicTopKOracle:
    """Production's single-pass walk == the oracle's quantified minimum."""

    @pytest.mark.parametrize(
        "metric, seed",
        [("rtt_ms", 1), ("loss_rate", 2), ("jitter_ms", 3), ("mos", 4)],
    )
    def test_matches_production_on_random_inputs(self, metric, seed):
        cost = make_cost_model(metric)
        rng = np.random.default_rng(seed)
        for trial in range(300):
            n = int(rng.integers(1, len(OPTION_POOL) + 1))
            predictions = _random_predictions(rng, n)
            max_k = [None, 2, 3, 6][int(rng.integers(4))]
            produced = dynamic_top_k_cost(predictions, cost, max_k=max_k)
            expected = oracle_dynamic_top_k(predictions, cost, max_k=max_k)
            assert produced == expected, (
                f"trial {trial}: production {produced} != oracle {expected}"
            )

    def test_empty_predictions(self):
        cost = make_cost_model("rtt_ms")
        assert oracle_dynamic_top_k({}, cost) == []
        assert dynamic_top_k_cost({}, cost) == []

    def test_overlapping_intervals_keep_everything(self):
        """All confidence intervals overlap: nothing is excludable."""
        cost = make_cost_model("rtt_ms")
        predictions = {
            RelayOption.bounce(r): Prediction(
                mean=np.array([100.0 + r, 0.0, 0.0]),
                sem=np.array([50.0, 0.0, 0.0]),
                n=5,
                source="history",
            )
            for r in range(4)
        }
        kept = oracle_dynamic_top_k(predictions, cost)
        assert len(kept) == 4
        assert kept == dynamic_top_k_cost(predictions, cost)

    def test_separated_intervals_keep_only_best(self):
        cost = make_cost_model("rtt_ms")
        predictions = {
            RelayOption.bounce(r): Prediction(
                mean=np.array([100.0 * (r + 1), 0.0, 0.0]),
                sem=np.array([1.0, 0.0, 0.0]),
                n=30,
                source="history",
            )
            for r in range(4)
        }
        kept = oracle_dynamic_top_k(predictions, cost)
        assert kept == [RelayOption.bounce(0)]
        assert kept == dynamic_top_k_cost(predictions, cost)


class TestBanditOracle:
    """UCB1Explorer == OracleBandit, arm-for-arm, in both modes."""

    @pytest.mark.parametrize("mode", ["via", "classic"])
    def test_lockstep_choices(self, mode):
        rng = np.random.default_rng(99 if mode == "via" else 100)
        for _trial in range(50):
            n_arms = int(rng.integers(1, 6))
            arms = [OPTION_POOL[i] for i in range(n_arms)]
            normalizer = float(rng.uniform(10, 200))
            coef = float(rng.choice([0.01, 0.1, 1.0]))
            production = UCB1Explorer(
                arms, normalizer=normalizer, exploration_coef=coef, mode=mode
            )
            oracle = OracleBandit(
                arms, normalizer=normalizer, exploration_coef=coef, mode=mode
            )
            for step in range(40):
                choice = production.choose()
                assert choice == oracle.choose(), f"diverged at play {step}"
                cost = float(rng.uniform(1, 300))
                production.update(choice, cost)
                oracle.update(choice, cost)
            assert production.total_plays == oracle.total_plays
            assert production.max_seen_cost == oracle.max_seen_cost

    def test_normalizer_matches_from_cost_model(self):
        cost = make_cost_model("rtt_ms")
        rng = np.random.default_rng(5)
        for _ in range(50):
            predictions = _random_predictions(rng, int(rng.integers(1, 7)))
            arms = list(predictions)[: int(rng.integers(1, len(predictions) + 1))]
            production = UCB1Explorer.from_cost_model(arms, predictions, cost)
            assert production._normalizer == pytest.approx(
                oracle_topk_normalizer(arms, predictions, cost)
            )

    def test_normalizer_without_predictions_is_one(self):
        cost = make_cost_model("rtt_ms")
        assert oracle_topk_normalizer([RelayOption.bounce(0)], {}, cost) == 1.0


class TestStitchingOracle:
    """TomographyModel.predict == the Figure-11 restatement."""

    def _fitted_model(self):
        history = CallHistory(window_hours=24.0)
        rng = np.random.default_rng(21)
        sides = ["US", "GB", "IN"]
        options = [RelayOption.bounce(0), RelayOption.bounce(1), RelayOption.transit(0, 1)]
        for _ in range(300):
            s, d = rng.choice(3, size=2, replace=False)
            option = options[int(rng.integers(len(options)))]
            history.add(
                (sides[int(s)], sides[int(d)]),
                option,
                float(rng.uniform(0, 20)),
                PathMetrics(
                    rtt_ms=float(rng.uniform(20, 200)),
                    loss_rate=float(rng.uniform(0, 0.02)),
                    jitter_ms=float(rng.uniform(0, 10)),
                ),
            )

        def inter_relay(r1, r2):
            return PathMetrics(rtt_ms=8.0, loss_rate=0.001, jitter_ms=1.0)

        model = TomographyModel.fit(
            (
                ((key[0][0], key[0][1]), key[1], stat)
                for key, stat in history.window_items(0)
            ),
            inter_relay,
        )
        return model, inter_relay, sides

    def test_predict_matches_oracle_everywhere(self):
        model, inter_relay, sides = self._fitted_model()
        probes = [DIRECT] + [RelayOption.bounce(r) for r in range(3)] + [
            RelayOption.transit(0, 1),
            RelayOption.transit(1, 0),
            RelayOption.transit(0, 2),
        ]
        n_compared = 0
        for side_s in sides:
            for side_d in sides:
                for option in probes:
                    produced = model.predict(side_s, side_d, option)
                    expected = oracle_stitch(
                        model._estimates, model._sems, inter_relay,
                        side_s, side_d, option,
                    )
                    assert (produced is None) == (expected is None)
                    if produced is None:
                        continue
                    n_compared += 1
                    np.testing.assert_allclose(produced[0], expected[0], rtol=1e-9)
                    np.testing.assert_allclose(produced[1], expected[1], rtol=1e-9)
        assert n_compared > 10  # the fit actually produced estimates

    def test_direct_is_never_stitched(self):
        model, inter_relay, _sides = self._fitted_model()
        assert oracle_stitch(
            model._estimates, model._sems, inter_relay, "US", "GB", DIRECT
        ) is None


class _TruncatedPruneBug(ViaPolicy):
    """A planted Algorithm 2 bug: silently keeps only the best candidate."""

    def _prune(self, predictions, norm_options):
        topk = super()._prune(predictions, norm_options)
        return topk[:1] if len(topk) > 1 else topk


class TestDifferentialHarness:
    def test_200_randomized_steps_zero_divergence(self):
        """The acceptance criterion, at unit-test scale: several full
        randomized streams with no oracle/production disagreement."""
        for seed in range(4):
            report = run_differential(n_steps=200, seed=seed)
            assert report.n_steps == 200
            assert report.n_assigns == 200
            assert report.n_observes == 200

    def test_detects_planted_pruning_bug(self):
        config = ViaConfig(
            metric="rtt_ms",
            topk_mode="dynamic",
            epsilon=0.0,
            refresh_hours=6.0,
            min_direct_samples=1,
            seed=3,
        )
        with pytest.raises(DivergenceError) as excinfo:
            run_differential(
                config, n_steps=400, seed=5, production_factory=_TruncatedPruneBug
            )
        context = excinfo.value.context
        assert context["seed"] == 5
        assert "production_choice" in context and "oracle_choice" in context
        assert context["production_choice"] != context["oracle_choice"]
        # The context is artifact-ready: a JSON round-trip must survive.
        json.dumps(context, default=repr)

    def test_oracle_rejects_out_of_scope_knobs(self):
        with pytest.raises(ValueError):
            OracleViaPolicy(ViaConfig(budget=0.5))
        with pytest.raises(ValueError):
            OracleViaPolicy(ViaConfig(per_relay_cap=0.3))

    def test_random_config_stays_in_oracle_scope(self, rng):
        for _ in range(30):
            config = random_config(rng)
            OracleViaPolicy(config)  # must not raise

    def test_epsilon_draws_stay_in_lockstep(self):
        """High epsilon exercises the RNG short-circuit order on every call."""
        config = ViaConfig(
            metric="rtt_ms", epsilon=0.5, refresh_hours=6.0,
            min_direct_samples=1, seed=11,
        )
        report = run_differential(config, n_steps=200, seed=12)
        assert report.n_epsilon > 20  # the coin actually flipped


class TestCrashPointSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("sweep")
        recorded = record_workload(workdir / "recorded", n_rounds=4, seed=7)
        report = crash_point_sweep(
            workdir, n_rounds=4, seed=7, corrupt_samples=16, recorded=recorded
        )
        return recorded, report

    def test_sweep_covers_every_byte_and_passes(self, small_sweep):
        recorded, report = small_sweep
        assert report.ok, report.failures[:3]
        assert report.n_truncations == len(recorded.data) + 1
        assert report.n_boundary_equivalence_checks == recorded.n_records + 1
        assert report.n_corruptions == 16

    def test_recorded_log_layout(self, small_sweep):
        recorded, _report = small_sweep
        # 4 hellos + 4 rounds x (measurement + request).
        assert recorded.n_records == 4 + 2 * 4
        assert recorded.boundaries[0] == 8  # the magic prefix
        assert recorded.boundaries[-1] == len(recorded.data)
        assert recorded.boundaries == sorted(set(recorded.boundaries))
        kinds = [r["kind"] for r in recorded.records]
        assert kinds[:4] == ["hello"] * 4
        assert kinds[4:] == ["measurement", "request"] * 4

    def test_expected_prefix_semantics(self, small_sweep):
        recorded, _report = small_sweep
        assert recorded.expected_prefix(0) == 0
        assert recorded.expected_prefix(7) == 0  # inside the magic
        assert recorded.expected_prefix(recorded.boundaries[1]) == 1
        assert recorded.expected_prefix(recorded.boundaries[1] + 1) == 1
        assert recorded.expected_prefix(len(recorded.data)) == recorded.n_records

    def test_sweep_detects_tampered_expectation(self, tmp_path, small_sweep):
        """Drop the last record from the expectation: salvage now finds one
        record 'too many' at the full-length offset, and the sweep must say
        so rather than pass vacuously."""
        recorded, _report = small_sweep
        tampered = RecordedLog(
            data=recorded.data,
            records=recorded.records[:-1],
            boundaries=recorded.boundaries[:-1],
        )
        report = crash_point_sweep(
            tmp_path, n_rounds=4, seed=7, corrupt_samples=0, recorded=tampered
        )
        assert not report.ok
        assert any(f["check"] == "truncation" for f in report.failures)


class TestRunner:
    TINY = VerifyBudget(
        differential_streams=1,
        differential_steps=60,
        crash_rounds=2,
        corrupt_samples=4,
        statemachine_examples=2,
        statemachine_steps=8,
        seed=0,
    )

    def test_small_run_passes_with_metrics(self, tmp_path):
        registry = MetricsRegistry()
        report = run_verify(
            self.TINY, workdir=tmp_path, registry=registry,
            artifacts_dir=tmp_path / "artifacts",
        )
        assert report.ok, report.failures[:3]
        assert not report.truncated
        assert len(report.legs) == 3
        assert report.artifact_path is None
        text = registry.render_text()
        # One stream x two candidates (scalar ViaPolicy + the vector adapter).
        assert 'via_verify_checks_total{leg="differential"} 2' in text
        assert 'via_verify_checks_total{leg="crashpoints"}' in text
        assert "via_verify_last_duration_seconds" in text
        assert "seed=0" in report.summary() and "PASS" in report.summary()

    def test_time_budget_truncates_cleanly(self, tmp_path):
        import dataclasses

        budget = dataclasses.replace(self.TINY, time_budget_s=0.0)
        report = run_verify(
            budget, workdir=tmp_path, registry=MetricsRegistry(),
            artifacts_dir=tmp_path / "artifacts",
        )
        assert report.truncated
        assert report.ok  # skipped is not failed
        assert "TIME BUDGET EXHAUSTED" in report.summary()

    def test_failure_writes_seed_reproducible_artifact(self, tmp_path, monkeypatch):
        import repro.verify.runner as runner_module

        def planted(n_steps, seed, **kwargs):
            raise DivergenceError("planted divergence", {"seed": seed})

        monkeypatch.setattr(runner_module, "run_differential", planted)
        registry = MetricsRegistry()
        report = run_verify(
            self.TINY, workdir=tmp_path, registry=registry,
            artifacts_dir=tmp_path / "artifacts",
        )
        assert not report.ok
        assert report.artifact_path is not None and report.artifact_path.exists()
        payload = json.loads(report.artifact_path.read_text(encoding="utf-8"))
        assert payload["seed"] == 0
        assert payload["failures"][0]["leg"] == "differential"
        # The planted bug diverges for both candidates (scalar + vector).
        assert 'via_verify_failures_total{leg="differential"} 2' in registry.render_text()
        assert "reproduce with: repro verify --seed 0" in report.summary()


class TestVerifyCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["verify"])
        assert args.budget == "small"
        assert args.seed == 0
        assert args.artifacts_dir == ".verify-failures"

    def test_small_cli_run_exits_zero(self, tmp_path, capsys):
        code = main([
            "verify", "--seed", "1", "--streams", "1", "--steps", "60",
            "--crash-rounds", "2", "--artifacts-dir", str(tmp_path / "artifacts"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "seed=1" in out
