"""The time-boxed verification run behind ``repro verify`` / ``make test-verify``.

One :func:`run_verify` call executes the three legs of the conformance
plane under a :class:`VerifyBudget`:

1. **differential** -- N randomized call streams through oracle and
   production policies side by side (one stream per seed offset);
2. **crashpoints** -- the every-byte WAL truncation + sampled-corruption
   sweep;
3. **statemachine** -- the hypothesis controller-lifecycle fuzz (skipped
   with a note when hypothesis is not installed).

Runs are observable (``via_verify_*`` metrics on the shared registry)
and reproducible: everything derives from ``budget.seed``, and any
failure writes a JSON artifact under ``.verify-failures/`` carrying the
seed, the budget, and each failure's full context.  An optional
``time_budget_s`` stops cleanly between work units -- a truncated run
reports what it skipped rather than silently passing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.policy import ViaPolicy
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.verify.crashpoints import crash_point_sweep
from repro.verify.differential import (
    DivergenceError,
    VectorizedViaPolicy,
    run_differential,
)

__all__ = ["VerifyBudget", "VerifyReport", "run_verify"]


@dataclass(frozen=True, slots=True)
class VerifyBudget:
    """How much of each leg to run; everything derives from ``seed``."""

    #: Independent differential streams (stream i uses ``seed + i``).
    differential_streams: int = 5
    #: Policy steps per differential stream.
    differential_steps: int = 200
    #: Measurement+request rounds in the recorded crash-sweep workload.
    crash_rounds: int = 25
    #: Single-byte corruption trials in the crash sweep.
    corrupt_samples: int = 64
    #: hypothesis examples (distinct rule sequences) for the state machine.
    statemachine_examples: int = 12
    #: Max rules per state-machine example.
    statemachine_steps: int = 30
    #: Wall-clock cap in seconds; None = run everything.
    time_budget_s: float | None = None
    #: Master seed; a failure artifact's seed reproduces the failure.
    seed: int = 0

    @classmethod
    def small(cls, seed: int = 0) -> "VerifyBudget":
        """A quick gate (CI inner loop): a couple of minutes of checking."""
        return cls(
            differential_streams=3,
            differential_steps=200,
            crash_rounds=8,
            corrupt_samples=24,
            statemachine_examples=5,
            statemachine_steps=20,
            seed=seed,
        )

    @classmethod
    def full(cls, seed: int = 0) -> "VerifyBudget":
        """The acceptance-sized run: a >= 50-record crash sweep and more
        differential streams."""
        return cls(
            differential_streams=8,
            differential_steps=250,
            crash_rounds=25,  # 4 hellos + 50 records, swept at every byte
            corrupt_samples=128,
            statemachine_examples=15,
            statemachine_steps=40,
            seed=seed,
        )


@dataclass(slots=True)
class VerifyReport:
    """What one verification run checked and what it found."""

    seed: int
    budget: VerifyBudget
    n_checks: int = 0
    failures: list[dict] = field(default_factory=list)
    #: Per-leg human-readable outcome lines, in execution order.
    legs: list[str] = field(default_factory=list)
    #: Work units skipped because the time budget ran out.
    truncated: bool = False
    duration_s: float = 0.0
    #: Where the failure artifact was written, when there were failures.
    artifact_path: Path | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"verify seed={self.seed}: {self.n_checks} checks in {self.duration_s:.1f}s"]
        lines += [f"  {leg}" for leg in self.legs]
        if self.truncated:
            lines.append("  TIME BUDGET EXHAUSTED: later legs were skipped")
        if self.ok:
            lines.append("  PASS")
        else:
            lines.append(f"  FAIL: {len(self.failures)} failures")
            if self.artifact_path is not None:
                lines.append(f"  artifact: {self.artifact_path}")
                lines.append(f"  reproduce with: repro verify --seed {self.seed}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": dataclasses.asdict(self.budget),
            "n_checks": self.n_checks,
            "failures": self.failures,
            "legs": self.legs,
            "truncated": self.truncated,
            "duration_s": self.duration_s,
        }


def run_verify(
    budget: VerifyBudget | None = None,
    *,
    workdir: str | Path | None = None,
    registry: MetricsRegistry | None = None,
    artifacts_dir: str | Path = ".verify-failures",
) -> VerifyReport:
    """Run the three verification legs under ``budget``; never raises on a
    conformance failure -- failures land in the report and its artifact."""
    budget = budget or VerifyBudget()
    registry = registry if registry is not None else REGISTRY
    started = time.monotonic()
    deadline = None if budget.time_budget_s is None else started + budget.time_budget_s
    report = VerifyReport(seed=budget.seed, budget=budget)

    obs_checks = registry.counter(
        "via_verify_checks_total",
        "Verification checks executed, by leg.",
        ("leg",),
    )
    obs_failures = registry.counter(
        "via_verify_failures_total",
        "Verification failures found, by leg.",
        ("leg",),
    )
    registry.counter("via_verify_runs_total", "Verification runs started.").inc()

    own_workdir = workdir is None
    workdir = Path(tempfile.mkdtemp(prefix="repro-verify-")) if own_workdir else Path(workdir)

    def out_of_time() -> bool:
        if deadline is not None and time.monotonic() > deadline:
            report.truncated = True
            return True
        return False

    try:
        # Leg 1: differential oracle-vs-production streams.  Every stream
        # proves two candidates against the algorithm oracle: the scalar
        # ViaPolicy and the vectorised hot path routed through batches of
        # one -- the scalar-oracle equivalence guarantee, exercised end to
        # end (docs/performance.md).
        candidates = (("scalar", ViaPolicy), ("vector", VectorizedViaPolicy))
        n_steps = 0
        n_streams = 0
        leg_failures = 0
        for i in range(budget.differential_streams):
            if out_of_time():
                break
            stream_seed = budget.seed + i
            n_streams += 1
            for label, factory in candidates:
                try:
                    stream = run_differential(
                        n_steps=budget.differential_steps,
                        seed=stream_seed,
                        production_factory=factory,
                    )
                    n_steps += stream.n_steps
                except DivergenceError as exc:
                    leg_failures += 1
                    report.failures.append(
                        {"leg": "differential", "candidate": label,
                         "seed": stream_seed, "error": str(exc),
                         "context": exc.context}
                    )
                except Exception as exc:  # harness crash: also a finding
                    leg_failures += 1
                    report.failures.append(
                        {"leg": "differential", "candidate": label,
                         "seed": stream_seed,
                         "error": f"harness raised: {exc!r}"}
                    )
                report.n_checks += 1
                obs_checks.labels(leg="differential").inc()
        if leg_failures:
            obs_failures.labels(leg="differential").inc(leg_failures)
        report.legs.append(
            f"differential: {n_streams} streams x {len(candidates)} candidates "
            f"(scalar, vector), {n_steps} steps, {leg_failures} divergences"
        )

        # Leg 2: the crash-point sweep.
        if not out_of_time():
            try:
                sweep = crash_point_sweep(
                    workdir / "crash",
                    n_rounds=budget.crash_rounds,
                    seed=budget.seed + 1000,
                    corrupt_samples=budget.corrupt_samples,
                )
                report.n_checks += sweep.n_truncations + sweep.n_corruptions
                obs_checks.labels(leg="crashpoints").inc(
                    sweep.n_truncations + sweep.n_corruptions
                )
                if sweep.failures:
                    obs_failures.labels(leg="crashpoints").inc(len(sweep.failures))
                    report.failures.extend(
                        {"leg": "crashpoints", "seed": sweep.seed, **f}
                        for f in sweep.failures
                    )
                report.legs.append(sweep.summary())
            except Exception as exc:
                obs_failures.labels(leg="crashpoints").inc()
                report.failures.append(
                    {"leg": "crashpoints", "seed": budget.seed + 1000,
                     "error": f"harness raised: {exc!r}"}
                )
                report.legs.append("crashpoints: harness crashed")

        # Leg 3: the hypothesis lifecycle state machine.
        if not out_of_time():
            report.legs.append(
                _run_statemachine(budget, workdir, report, obs_checks, obs_failures)
            )
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        report.duration_s = time.monotonic() - started
        registry.gauge(
            "via_verify_last_duration_seconds",
            "Wall time of the most recent verification run.",
        ).set(report.duration_s)

    if report.failures:
        report.artifact_path = _write_artifact(artifacts_dir, report)
    return report


def _run_statemachine(budget, workdir, report, obs_checks, obs_failures) -> str:
    try:
        from hypothesis import HealthCheck, settings
        from hypothesis.stateful import run_state_machine_as_test
    except ImportError:  # pragma: no cover - environment without hypothesis
        return "statemachine: SKIPPED (hypothesis not installed)"
    from repro.verify.statemachine import build_controller_machine

    machine = build_controller_machine(workdir / "sm")
    report.n_checks += 1
    obs_checks.labels(leg="statemachine").inc()
    try:
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=budget.statemachine_examples,
                stateful_step_count=budget.statemachine_steps,
                deadline=None,
                database=None,
                print_blob=True,
                suppress_health_check=(HealthCheck.too_slow,),
            ),
        )
    except Exception as exc:
        obs_failures.labels(leg="statemachine").inc()
        report.failures.append(
            {"leg": "statemachine", "seed": budget.seed,
             "error": f"{type(exc).__name__}: {exc}"}
        )
        return "statemachine: FAILED (falsifying example above)"
    return (
        f"statemachine: {budget.statemachine_examples} lifecycle examples "
        f"x <= {budget.statemachine_steps} rules, ok"
    )


def _write_artifact(artifacts_dir: str | Path, report: VerifyReport) -> Path:
    directory = Path(artifacts_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"verify-seed{report.seed}-{int(time.time())}.json"
    path.write_text(
        json.dumps(report.to_dict(), indent=2, default=repr), encoding="utf-8"
    )
    return path
