"""One-shot CI gate (``make check``): docs, tests, and verified verification.

Runs, in order, failing fast:

1. ``scripts/check_docs.py`` — documentation referential integrity;
2. the tier-1 test suite (``pytest tests/``) under the ``ci`` hypothesis
   profile;
3. a small-budget :func:`repro.verify.runner.run_verify` executed under
   the stdlib :mod:`trace` module, asserting both that the run passes
   *and* that it actually exercises the verification plane: aggregate
   line coverage over ``src/repro/verify/`` must clear
   :data:`COVERAGE_FLOOR`.  A verification gate whose own code stops
   running is worse than none — it green-lights silently;
4. a 2-shard controller-ring smoke: hello (shard map discovery) →
   routed measurements → a gossip round replicating the fleet history →
   a WAL-recovered failover that catches up via gossip.  The full suite
   is ``make test-shard``; this leg just proves the ring wires up end to
   end in the gate environment;
5. the registry-completeness lint: every concrete policy class in
   ``src/repro/core/`` must be reachable through
   :data:`repro.core.registry.REGISTRY`, every entry must build on a tiny
   world, ``PolicySpec`` round-trips through the registry, and every
   ``supports_checkpoint`` entry round-trips its ``state_dict``;
6. a smoke-budget chaos soak (:func:`repro.soak.run_soak`): the full
   operational lifecycle — WAL rotation, snapshots, compaction, crash +
   recover with fingerprint equivalence — under seed-derived chaos, with
   the resource-trend watchdogs armed.  The hours-long run is
   ``repro soak --budget full``; this leg proves the harness itself and
   catches gross leaks in under a minute;
7. the repo benchmark at smoke scale (``make perf-smoke``), after four
   same-process ratio checks (the wire codec's shape; ``World.sample_call``
   under half its reference composition, streams equal; a WAL append of
   a validated wire line under half ``Store.log_request`` of the same
   values; ``assign_many``/``observe_many`` under
   :data:`VECTOR_RATIO_LIMIT` of the scalar loop on the same chunks,
   streams equal): the
   ``perf/`` harness self-tests, then one second of every
   ``BENCHMARK.json`` workload -- the build fails when any workload's
   correctness checks fail (speed is judged by the benchmark driver,
   never here).

The coverage leg uses :mod:`trace` (stdlib) rather than ``coverage.py``
deliberately: the reproduction environment is offline and must not grow
dependencies.  Denominators come from each file's compiled code objects
(``co_lines``), so docstrings and blank lines don't dilute the ratio.

    PYTHONPATH=src python scripts/ci_check.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import trace
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
VERIFY_SRC = REPO_ROOT / "src" / "repro" / "verify"

#: Minimum fraction of executable lines in ``src/repro/verify`` that the
#: small-budget run must execute.  Error/failure branches legitimately
#: stay cold on a passing run; everything else must be warm.
COVERAGE_FLOOR = 0.65


def _run(step: str, argv: list[str], env: dict[str, str]) -> bool:
    print(f"== {step}: {' '.join(argv)}", flush=True)
    result = subprocess.run(argv, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        print(f"ci-check: FAILED at {step} (exit {result.returncode})")
        return False
    return True


def _executable_lines(path: Path) -> set[int]:
    """Line numbers the compiler says can execute in ``path``."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _start, _end, lineno in obj.co_lines():
            if lineno is not None:
                lines.add(lineno)
        stack.extend(c for c in obj.co_consts if isinstance(c, types.CodeType))
    return lines


def _verify_with_coverage() -> bool:
    print("== verify: small-budget run_verify under stdlib trace", flush=True)

    def traced(tmp: Path):
        # Imports happen *inside* the traced call so the plane's
        # module-level lines (defs, dataclass fields) count as executed;
        # nothing under repro.verify may be imported before this point.
        from repro.obs.metrics import MetricsRegistry
        from repro.verify import VerifyBudget, run_verify

        budget = VerifyBudget(
            differential_streams=2,
            differential_steps=120,
            crash_rounds=4,
            corrupt_samples=16,
            statemachine_examples=3,
            statemachine_steps=15,
            seed=0,
        )
        return run_verify(
            budget,
            workdir=tmp / "work",
            registry=MetricsRegistry(),
            artifacts_dir=tmp / "artifacts",
        )

    assert not any(name.startswith("repro.verify") for name in sys.modules), (
        "repro.verify imported before the coverage tracer started"
    )
    # trace._Ignore caches its per-module ignore decision keyed on the
    # *basename* (`_modname`), so once any site-packages `__init__.py` or
    # `runner.py` is ignored, ours would be too.  Key the cache on the
    # full path instead; results().counts is unaffected.
    trace._modname = lambda path: path
    tracer = trace.Trace(
        count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix]
    )
    with tempfile.TemporaryDirectory(prefix="ci-check-") as tmp:
        report = tracer.runfunc(traced, Path(tmp))
    print(report.summary())
    if not report.ok or report.truncated:
        print("ci-check: FAILED at verify (run did not pass cleanly)")
        return False

    executed: dict[str, set[int]] = {}
    for (filename, lineno), hits in tracer.results().counts.items():
        if hits > 0:
            executed.setdefault(os.path.abspath(filename), set()).add(lineno)
    total_lines = 0
    total_hit = 0
    print(f"coverage of {VERIFY_SRC.relative_to(REPO_ROOT)}:")
    for path in sorted(VERIFY_SRC.glob("*.py")):
        lines = _executable_lines(path)
        hit = lines & executed.get(str(path.resolve()), set())
        total_lines += len(lines)
        total_hit += len(hit)
        print(f"  {path.name:<18} {len(hit):>4}/{len(lines):<4} "
              f"({len(hit) / max(1, len(lines)):.0%})")
    ratio = total_hit / max(1, total_lines)
    print(f"  {'TOTAL':<18} {total_hit:>4}/{total_lines:<4} ({ratio:.0%}) "
          f"[floor {COVERAGE_FLOOR:.0%}]")
    if ratio < COVERAGE_FLOOR:
        print("ci-check: FAILED at verify-coverage "
              f"({ratio:.1%} < {COVERAGE_FLOOR:.0%}: the gate is not "
              "actually exercising the verification plane)")
        return False
    return True


def _shard_smoke() -> bool:
    """End-to-end ring smoke: hello → route → gossip → failover."""
    print("== shard: 2-shard ring smoke (hello/route/gossip/failover)", flush=True)
    import asyncio

    async def smoke(tmp: Path) -> str | None:
        from repro.core.policy import ViaConfig
        from repro.deployment.protocol import ShardMapMessage
        from repro.deployment.ring import (
            InProcessRing,
            ShardController,
            ShardedViaClient,
        )
        from repro.netmodel.metrics import PathMetrics
        from repro.netmodel.options import DIRECT, RelayOption

        options = [DIRECT, RelayOption.bounce(0)]
        ring = InProcessRing(2, ViaConfig(seed=5), store_root=tmp)
        await ring.start()
        try:
            # hello: the ack must carry the shard map.
            client = ShardedViaClient(1, "US", "127.0.0.1", ring.shards[0].port)
            await client.connect()
            if client.shard_map != ring.shard_map:
                return "hello_ack did not carry the shard map"
            # route: one pair per shard; each measurement lands on its owner.
            dsts: dict[int, int] = {}
            dst = 2
            while len(dsts) < 2:
                dsts.setdefault(ring.shard_map.shard_of(1, dst), dst)
                dst += 1
            for d in dsts.values():
                result = await client.assign(d, options, 0.1)
                await client.report_measurement(
                    d, result.option, PathMetrics(90.0, 0.01, 4.0), 0.1
                )
            for _ in range(500):
                if all(s.n_measurements == 1 for s in ring.shards):
                    break
                await asyncio.sleep(0.01)
            await client.close()
            counts = [s.n_measurements for s in ring.shards]
            if counts != [1, 1]:
                return f"measurements misrouted: {counts}"
            # gossip: one round replicates the fleet's history everywhere.
            await ring.gossip_round()
            merged = [s.policy.history.total_calls() for s in ring.shards]
            if merged != [2, 2]:
                return f"gossip did not replicate the fleet history: {merged}"
            # failover: hard-stop shard 0, recover a replacement from its
            # WAL, then one gossip round catches it up on the fleet.
            await ring.shards[0].stop()
            revived = ShardController(
                ViaConfig(seed=5),
                shard_index=0,
                n_shards=2,
                gossip_on_map_update=False,
                store=tmp / "shard-0",
            )
            await revived.start()
            try:
                if revived.local_history.total_calls() != 1:
                    return "WAL recovery lost the shard's own measurements"
                revived._on_shard_map(
                    ShardMapMessage(
                        shard_map={
                            "version": 2,
                            "shards": [
                                ["127.0.0.1", revived.port],
                                ["127.0.0.1", ring.shards[1].port],
                            ],
                        }
                    )
                )
                await revived.gossip_now()
                if revived.policy.history.total_calls() != 2:
                    return "post-failover gossip did not catch up"
            finally:
                await revived.stop()
        finally:
            await ring.shards[1].stop()
        return None

    with tempfile.TemporaryDirectory(prefix="ci-shard-") as tmp:
        failure = asyncio.run(smoke(Path(tmp)))
    if failure is not None:
        print(f"ci-check: FAILED at shard-smoke ({failure})")
        return False
    print("  ring OK: map discovery, routing, gossip replication, WAL failover")
    return True


def _registry_lint() -> bool:
    """Registry completeness: no policy class escapes the registry.

    Four checks, all cheap:

    1. every concrete class under ``repro.core`` implementing the policy
       interface (``assign``/``observe`` or ``assign_paths``/
       ``observe_paths``) is reachable as some entry's ``policy_class``;
    2. every registered entry builds against a tiny world;
    3. ``PolicySpec(kind=<name>)`` resolves through the registry to the
       same class and display name as a direct registry build;
    4. every ``supports_checkpoint`` entry round-trips its ``state_dict``
       through a freshly built twin.
    """
    print("== registry: completeness lint over src/repro/core", flush=True)
    import importlib
    import inspect
    import pkgutil

    import repro.core
    from repro.core.registry import REGISTRY
    from repro.netmodel.topology import TopologyConfig
    from repro.netmodel.world import WorldConfig, build_world
    from repro.simulation.parallel import PolicySpec

    def is_policy_class(obj: object) -> bool:
        if not inspect.isclass(obj) or getattr(obj, "_is_protocol", False):
            return False
        single = callable(getattr(obj, "assign", None)) and callable(
            getattr(obj, "observe", None)
        )
        multi = callable(getattr(obj, "assign_paths", None)) and callable(
            getattr(obj, "observe_paths", None)
        )
        return single or multi

    concrete: set[type] = set()
    for info in pkgutil.iter_modules(repro.core.__path__):
        module = importlib.import_module(f"repro.core.{info.name}")
        for _name, obj in vars(module).items():
            if is_policy_class(obj) and obj.__module__ == module.__name__:
                concrete.add(obj)
    unregistered = concrete - REGISTRY.policy_classes()
    if unregistered:
        names = ", ".join(sorted(c.__qualname__ for c in unregistered))
        print(
            "ci-check: FAILED at registry-lint (policy classes in repro.core "
            f"with no registry entry: {names}; add a @register factory in "
            "src/repro/core/registry.py)"
        )
        return False

    world = build_world(
        WorldConfig(
            topology=TopologyConfig(n_countries=5, n_relays=4), n_days=2, seed=3
        )
    )
    for entry in REGISTRY.entries():
        try:
            built = entry.build(world, metric="rtt_ms", seed=11)
        except Exception as exc:
            print(f"ci-check: FAILED at registry-lint (entry {entry.name!r} "
                  f"did not build: {exc!r})")
            return False
        if entry.policy_class is not None and not isinstance(
            built, entry.policy_class
        ):
            print(
                f"ci-check: FAILED at registry-lint (entry {entry.name!r} "
                f"built a {type(built).__qualname__}, not its declared "
                f"{entry.policy_class.__qualname__})"
            )
            return False
        via_spec = PolicySpec(kind=entry.name, seed=11).build(world)
        if type(via_spec) is not type(built) or via_spec.name != built.name:
            print(
                f"ci-check: FAILED at registry-lint (PolicySpec round-trip "
                f"for {entry.name!r} diverged: spec built "
                f"{type(via_spec).__qualname__} {via_spec.name!r}, registry "
                f"built {type(built).__qualname__} {built.name!r})"
            )
            return False
        if entry.supports_checkpoint:
            state = built.state_dict()
            twin = entry.build(world, metric="rtt_ms", seed=11)
            twin.load_state_dict(state)
            if twin.state_dict() != state:
                print(
                    "ci-check: FAILED at registry-lint (checkpoint round-trip "
                    f"for {entry.name!r} is not stable)"
                )
                return False
    print(
        f"  registry OK: {len(concrete)} policy classes covered, "
        f"{len(REGISTRY)} entries build + spec-resolve"
        " (checkpoint entries round-trip)"
    )
    return True


def _soak_smoke() -> bool:
    """Smoke-budget chaos soak: the endurance loop, compressed to ~10 s."""
    print("== soak: smoke-budget chaos soak (repro soak --budget smoke)",
          flush=True)
    from repro.obs.metrics import MetricsRegistry
    from repro.soak import SoakBudget, run_soak

    with tempfile.TemporaryDirectory(prefix="ci-soak-") as tmp:
        report = run_soak(
            SoakBudget.smoke(seed=0),
            workdir=Path(tmp) / "work",
            registry=MetricsRegistry(),
            artifacts_dir=Path(tmp) / "artifacts",
        )
        if not report.ok:
            print(report.summary())
            print("ci-check: FAILED at soak-smoke")
            return False
    print(
        f"  soak OK: {report.n_ticks} ticks, {report.n_restores} restores "
        f"({report.n_raced_restores} raced), {report.n_compactions} "
        f"compactions, watchdogs quiet ({report.duration_s:.1f}s)"
    )
    return True


#: ``_codec_ratios``' menu-table limit.  It sits between the two readings
#: it must tell apart (``docs/performance.md``): a request whose menu the
#: table holds decodes in about half the time ``json.loads`` parses its
#: line, and with the table bypassed ``decode_message`` is that parse plus
#: the field checks, about 1.5x.
MENU_TABLE_RATIO_LIMIT = 0.75


def _codec_ratios() -> bool:
    """The wire codec's shape as ratios, not microseconds: both sides of
    each ratio are best-of-5 ``timeit`` runs taken back to back in this
    process, so a slow or noisy box moves them together.  The request
    legs are measured against ``json.loads`` of the request's own line."""
    print("== perf: codec ratios on the 21-option menu", flush=True)
    import json
    import timeit

    from repro.deployment.protocol import (
        RequestMessage,
        decode_message,
        decode_option,
        encode_message,
        encode_option,
    )
    from repro.netmodel.options import OptionKind, RelayOption
    from tests.vector_stream import options

    menu = [encode_option(option) for option in options()]
    request = RequestMessage(17, 42, 36.0, menu, corr_id=123456)
    line = encode_message(request)
    text = line.decode()
    warm = menu[-1]
    built = decode_option(warm)
    decode_message(line)  # the menu table now holds this menu

    def best(fn, number: int) -> float:
        return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6

    encode = best(lambda: encode_message(request), 2000)
    parse = best(lambda: json.loads(text), 2000)
    decode = best(lambda: decode_message(line), 2000)
    probe = best(lambda: decode_option(warm), 20000)
    build = best(lambda: RelayOption(OptionKind.TRANSIT, built.ingress, built.egress), 20000)
    print(
        f"  encode_request {encode:.1f} us, warm decode_request {decode:.1f} us, "
        f"json.loads {parse:.1f} us ({encode / parse:.2f}x, limit 3x; "
        f"{decode / parse:.2f}x, limit {MENU_TABLE_RATIO_LIMIT}x); warm decode_option "
        f"{probe:.2f} us vs RelayOption() {build:.2f} us ({probe / build:.2f}x, limit 0.5x)"
    )
    if encode >= 3 * parse:
        print("ci-check: FAILED at codec-ratios (encoding a request costs 3x "
              "parsing it: is encode_message copying the menu again?)")
        return False
    if decode >= MENU_TABLE_RATIO_LIMIT * parse:
        print(f"ci-check: FAILED at codec-ratios (a warm decode_message costs "
              f"{MENU_TABLE_RATIO_LIMIT}x json.loads of the line or more: is the "
              "menu table hit?)")
        return False
    if probe >= 0.5 * build:
        print("ci-check: FAILED at codec-ratios (a warm decode_option is no "
              "cheaper than constructing the option: is the intern table hit?)")
        return False
    return True


def _sampler_ratio() -> bool:
    """The world's sampler against its definition (the composition written
    out in ``tests/sampler_reference.py``): the same stream, bit for bit,
    in under half the time -- in the form of :func:`_codec_ratios`."""
    print("== perf: World.sample_call vs the reference composition", flush=True)
    import timeit

    import numpy as np

    from repro.netmodel import TopologyConfig, WorldConfig, build_world
    from repro.workload import WorkloadConfig, generate_trace
    from tests.sampler_reference import reference_sample_call

    world = build_world(
        WorldConfig(topology=TopologyConfig(n_countries=20, n_relays=10), n_days=10)
    )
    trace = generate_trace(
        world.topology, WorkloadConfig(n_calls=2000, n_pairs=600), n_days=10
    )
    calls = []
    for i, call in enumerate(trace.calls):
        menu = world.options_for_pair(call.src_asn, call.dst_asn)
        calls.append((
            (call.src_asn, call.dst_asn, menu[i % len(menu)], call.t_hours),
            dict(src_wireless=call.src_wireless, dst_wireless=call.dst_wireless,
                 src_prefix=call.src_prefix, dst_prefix=call.dst_prefix),
        ))

    def compiled(rng):
        return [world.sample_call(*args, rng, **client) for args, client in calls]

    def reference(rng):
        return [reference_sample_call(world, *args, rng, **client) for args, client in calls]

    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    if compiled(ours) != reference(theirs) or (
        ours.bit_generator.state != theirs.bit_generator.state
    ):
        print("ci-check: FAILED at sampler-ratio (World.sample_call and the "
              "reference composition produced different streams)")
        return False

    def best(fn) -> float:
        return min(timeit.repeat(lambda: fn(ours), number=1, repeat=5)) / len(calls) * 1e6

    fast, slow = best(compiled), best(reference)
    print(
        f"  sample_call {fast:.1f} us vs reference composition {slow:.1f} us "
        f"({fast / slow:.2f}x, limit 0.5x), streams equal over {len(calls)} calls"
    )
    if fast >= 0.5 * slow:
        print("ci-check: FAILED at sampler-ratio (sampling a call costs half "
              "its object-by-object definition: is the compiled walk in use?)")
        return False
    return True


def _wal_ratio() -> bool:
    """Logging a validated wire line against logging the same message as
    values (the typed helpers ``perf/`` times, which must ``json.dumps``
    them) -- in the form of :func:`_codec_ratios`."""
    print("== perf: WAL append of a wire line vs the same record as values", flush=True)
    import tempfile
    import timeit

    from repro.deployment.protocol import (
        MeasurementMessage,
        RequestMessage,
        encode_message,
        encode_option,
    )
    from repro.store import Store, StoreConfig
    from tests.vector_stream import options

    menu = [encode_option(option) for option in options()]
    request = encode_message(RequestMessage(17, 42, 36.0, menu, corr_id=123456))
    measured = (17, 42, 36.0, menu[5], 187.25, 0.002, 3.0)
    measurement = encode_message(MeasurementMessage(*measured, corr_id=123457))

    def best(fn) -> float:
        return min(timeit.repeat(fn, number=2000, repeat=5)) / 2000 * 1e6

    with tempfile.TemporaryDirectory(prefix="via-ci-wal-") as tmp:
        store = Store(tmp, StoreConfig(fsync="off"))
        try:
            request_line = best(lambda: store.log_line("request", request))
            request_values = best(lambda: store.log_request(17, 42, 36.0, menu))
            measurement_line = best(lambda: store.log_line("measurement", measurement))
            measurement_values = best(lambda: store.log_measurement(*measured))
        finally:
            store.close()
    print(
        f"  request line {request_line:.1f} us vs log_request {request_values:.1f} us "
        f"({request_line / request_values:.2f}x, limit 0.5x); measurement line "
        f"{measurement_line:.1f} us vs log_measurement {measurement_values:.1f} us "
        f"({measurement_line / measurement_values:.2f}x, limit 0.8x)"
    )
    if request_line >= 0.5 * request_values or measurement_line >= 0.8 * measurement_values:
        print("ci-check: FAILED at wal-ratio (logging the line a peer sent costs "
              "as much as encoding it: is the durable write path encoding again?)")
        return False
    return True


#: ``_vector_ratio``'s limit.  It sits between the two readings it must
#: tell apart (``docs/performance.md``): the columnar path runs at ~0.27x
#: the scalar loop, and a batch that falls back to looping the scalar body
#: (``_vector_assign_eligible`` false) reads ~0.62x -- a fallback still
#: beats the loop, because ``observe_many`` stays columnar.
VECTOR_RATIO_LIMIT = 0.45


def _vector_ratio() -> bool:
    """The columnar policy path against the scalar loop it must equal:
    each chunk assigned call by call and then observed, against
    ``assign_many``/``observe_many`` of the same chunk, on a fresh
    ``ViaPolicy`` per run -- the same stream, under
    :data:`VECTOR_RATIO_LIMIT` of the time, in the form of
    :func:`_sampler_ratio`."""
    print("== perf: assign_many/observe_many vs the scalar loop", flush=True)
    import timeit

    from repro.core.policy import ViaConfig, ViaPolicy
    from repro.core.vector import CallBatch, MetricsBatch
    from repro.obs.metrics import MetricsRegistry
    from tests.vector_stream import inter_relay, make_stream

    calls, options_per_call, metrics = make_stream(n_calls=20_000)
    chunks = [(i, min(i + 2000, len(calls))) for i in range(0, len(calls), 2000)]
    metrics_batches = [MetricsBatch.from_metrics(metrics[i0:i1]) for i0, i1 in chunks]

    def fresh() -> ViaPolicy:
        return ViaPolicy(ViaConfig(seed=2016), inter_relay=inter_relay, registry=MetricsRegistry())

    def scalar(policy):
        chosen = []
        for i0, i1 in chunks:
            choices = [policy.assign(calls[i], options_per_call[i]) for i in range(i0, i1)]
            for i, option in zip(range(i0, i1), choices):
                policy.observe(calls[i], option, metrics[i])
            chosen += choices
        return chosen

    def vector(policy):
        chosen = []
        for (i0, i1), rows in zip(chunks, metrics_batches):
            batch = CallBatch.from_calls(calls[i0:i1])
            choices = policy.assign_many(batch, options_per_call[i0:i1])
            policy.observe_many(batch, choices, rows)
            chosen += choices
        return chosen

    ours, theirs = fresh(), fresh()
    if vector(ours) != scalar(theirs) or (
        ours._rng.bit_generator.state != theirs._rng.bit_generator.state
        or ours.state_dict() != theirs.state_dict()
    ):
        print("ci-check: FAILED at vector-ratio (assign_many/observe_many and "
              "the scalar loop produced different streams)")
        return False

    def runs(fn) -> list[float]:
        return [t * 1e3 for t in timeit.repeat(lambda: fn(fresh()), number=1, repeat=5)]

    slow, fast = runs(scalar), runs(vector)
    print(
        f"  assign_many/observe_many {min(fast):.1f} ms vs scalar loop {min(slow):.1f} ms "
        f"({min(fast) / min(slow):.3f}x, limit {VECTOR_RATIO_LIMIT}x), streams equal "
        f"over {len(calls)} calls; runs (ms) vector {' / '.join(f'{t:.1f}' for t in fast)}, "
        f"scalar {' / '.join(f'{t:.1f}' for t in slow)}"
    )
    if min(fast) >= VECTOR_RATIO_LIMIT * min(slow):
        print(f"ci-check: FAILED at vector-ratio (a batch costs {VECTOR_RATIO_LIMIT}x "
              "the scalar loop or more: is assign_many looping the scalar body?)")
        return False
    return True


def _perf_smoke(env: dict[str, str]) -> bool:
    """The repo benchmark's correctness checks (``make perf-smoke``), after
    the codec, sampler, WAL and vector ratio checks."""
    if not (_codec_ratios() and _sampler_ratio() and _wal_ratio() and _vector_ratio()):
        return False
    steps = (
        ("perf self-tests", [sys.executable, "-m", "pytest", "perf/tests", "-q"]),
        (
            "perf smoke",
            [sys.executable, "perf/run.py", "--smoke", "--seed", "1",
             "--out", "perf/out/smoke"],
        ),
    )
    return all(_run(step, argv, env) for step, argv in steps)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("REPRO_HYPOTHESIS_PROFILE", "ci")
    steps = (
        ("docs-check", [sys.executable, "scripts/check_docs.py"]),
        ("tier-1 tests", [sys.executable, "-m", "pytest", "tests/"]),
    )
    for step, argv in steps:
        if not _run(step, argv, env):
            return 1
    # The repo root too: the ratio legs import ``tests.sampler_reference``
    # and ``tests.vector_stream``.
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    # First: every later leg imports repro.* directly, and the traced
    # verify leg requires repro.verify to be un-imported.
    if not _verify_with_coverage():
        return 1
    if not _shard_smoke():
        return 1
    if not _registry_lint():
        return 1
    if not _soak_smoke():
        return 1
    if not _perf_smoke(env):
        return 1
    print(
        "ci-check: OK (docs, tier-1, verify + coverage floor, shard smoke, "
        "registry lint, soak smoke, ratio legs + perf smoke)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
