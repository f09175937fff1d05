"""One-shot CI gate (``make check``): docs, tests, and verified verification.

Runs, in order, failing fast:

0. the import leg: each import in :data:`IMPORT_BANS` runs in a fresh
   interpreter, which must not load the modules banned for it.  scipy is
   only the test arbiter of tomography's LSQR (a ``dev`` extra), and
   networkx is imported where it is used, so neither may ride in on an
   ``import repro``.  The controller child's own imports
   (``perf/server_child.py``) are held to module granularity by
   :data:`SERVER_CHILD_BANS`: the serving layers, nothing else.  It
   checks a module set, not a time;
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
7. the repo benchmark at smoke scale (``make perf-smoke``), after seven
   same-process ratio checks (the wire codec's shape; ``World.sample_call``
   under half its reference composition, streams equal; ``generate_trace``
   under :data:`TRACE_RATIO_LIMIT` of its scalar-draw reference, traces
   equal; ``Call``, ``CallOutcome`` and ``PathMetrics`` each under
   :data:`RECORD_RATIO_LIMITS` of a frozen-dataclass twin; a WAL append of
   a validated wire line under half ``Store.log_request`` of the same
   values; ``assign_many``/``observe_many`` under
   :data:`VECTOR_RATIO_LIMIT` of the scalar loop on the same chunks,
   streams equal; ``Store.snapshot``'s traced peak under
   :data:`SNAPSHOT_RATIO_LIMIT` times its file): the
   ``perf/`` harness self-tests, then one second of every
   ``BENCHMARK.json`` workload -- the build fails when any workload's
   correctness checks fail (speed is judged by the benchmark driver,
   never here);
8. the driver's output contract: every workload in the driver's form
   (``perf/run.py --workload W --seed 3 --seconds 1 --trace T``, both
   trace modes).  Each must exit 0 with a last line that parses as
   strict JSON: no NaN, Infinity or null, ``correct`` true, every metric
   a finite number, in ``BENCHMARK.json`` order.  A probe that raises is
   reported as ``null``, and ``json.dumps`` writes NaN as ``NaN``; both
   pass ``--smoke`` and are refused by the driver.

The coverage leg uses :mod:`trace` (stdlib) rather than ``coverage.py``
deliberately: the reproduction environment is offline and must not grow
dependencies.  Denominators come from each file's compiled code objects
(``co_lines``), so docstrings and blank lines don't dilute the ratio.

    PYTHONPATH=src python scripts/ci_check.py
"""

from __future__ import annotations

import ast
import json
import math
import os
import subprocess
import sys
import tempfile
import trace
import types
from pathlib import Path
from typing import NoReturn

REPO_ROOT = Path(__file__).resolve().parent.parent
VERIFY_SRC = REPO_ROOT / "src" / "repro" / "verify"

#: Minimum fraction of executable lines in ``src/repro/verify`` that the
#: small-budget run must execute.  Error/failure branches legitimately
#: stay cold on a passing run; everything else must be warm.
COVERAGE_FLOOR = 0.65

#: Import statements -> modules that running them must not load (a name
#: bans the module and everything under it).  The star imports resolve
#: every lazy re-export of the package.
IMPORT_BANS = {
    "from repro import *": ("scipy",),
    "from repro.deployment import *": ("scipy", "networkx"),
    "import repro.simulation": ("scipy",),
    "import repro.cli": ("scipy",),
    # `repro store verify` end to end, on the pinned store fixture: a store
    # check reads WAL frames and a snapshot, never the replay planes.
    "from repro.cli import main; main(['store', 'verify', 'tests/fixtures/store-seed7'])": (
        "scipy", "repro.simulation", "repro.analysis", "repro.workload", "repro.netmodel.world",
    ),
}

#: The controller child of the repo benchmark: what its imports may not
#: load.  A controller restart compiles every module it imports, so the
#: serving path must not reach the world model, the trace generator, the
#: replay and analysis planes, the clients and ring, or the policies the
#: controller never builds.
SERVER_CHILD = REPO_ROOT / "perf" / "server_child.py"
SERVER_CHILD_BANS = (
    "repro.netmodel.world",
    "repro.netmodel.topology",
    "repro.netmodel.graph",
    "repro.workload",
    "repro.simulation",
    "repro.analysis",
    "repro.deployment.ring",
    "repro.deployment.client",
    "repro.deployment.testbed",
    "repro.core.multipath",
    "repro.core.hybrid",
    "repro.core.sharding",
    "networkx",
    "scipy",
)


def _run(step: str, argv: list[str], env: dict[str, str]) -> bool:
    print(f"== {step}: {' '.join(argv)}", flush=True)
    result = subprocess.run(argv, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        print(f"ci-check: FAILED at {step} (exit {result.returncode})")
        return False
    return True


def _server_child_imports() -> str:
    """The unconditional imports at the head of the controller child's
    ``_serve``, as source: what every controller start runs."""
    tree = ast.parse(SERVER_CHILD.read_text(encoding="utf-8"))
    serve = next(
        node for node in tree.body
        if isinstance(node, ast.AsyncFunctionDef) and node.name == "_serve"
    )
    return "\n".join(
        ast.unparse(node) for node in serve.body if isinstance(node, ast.ImportFrom)
    )


def _import_leg(env: dict[str, str]) -> bool:
    """Run each import in :data:`IMPORT_BANS`, and the controller child's,
    in a fresh interpreter; fail if any loads a module banned for it."""
    print("== imports: entry points load no banned module", flush=True)
    # What the code prints is swallowed: stdout carries the module list.
    probe = (
        "import contextlib, io, json, sys; sys.path.insert(0, 'perf')\n"
        "with contextlib.redirect_stdout(io.StringIO()): exec(sys.argv[1])\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    legs = [(code, code, banned) for code, banned in IMPORT_BANS.items()]
    legs.append(
        (_server_child_imports(), str(SERVER_CHILD.relative_to(REPO_ROOT)), SERVER_CHILD_BANS)
    )
    ok = True
    for code, label, banned in legs:
        result = subprocess.run(
            [sys.executable, "-c", probe, code], cwd=REPO_ROOT, env=env,
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            print(result.stderr)
            print(f"ci-check: FAILED at imports ({label} exited {result.returncode})")
            return False
        modules = json.loads(result.stdout)
        loaded = sorted(
            m for m in modules if any(m == b or m.startswith(b + ".") for b in banned)
        )
        n_repro = sum(m == "repro" or m.startswith("repro.") for m in modules)
        shown = "loads " + ", ".join(loaded) if loaded else "clean"
        print(f"  {label}: {shown} ({len(modules)} modules, {n_repro} repro)")
        ok = ok and not loaded
    if not ok:
        print("ci-check: FAILED at imports (a banned module is imported at module "
              "load: import it where it is used, or not at all)")
    return ok


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


def _interleaved(a, b, *, number: int, repeat: int = 5) -> tuple[list[float], list[float]]:
    """Seconds per call of ``a`` and of ``b``, one list of ``repeat`` runs
    of ``number`` calls each per side, the runs taken alternately (a, b, a,
    b, ...) so that a swing in the box's speed lands on both sides instead
    of on one.  Callers keep each side's best."""
    import timeit

    runs_a: list[float] = []
    runs_b: list[float] = []
    for _ in range(repeat):
        runs_a.append(timeit.timeit(a, number=number) / number)
        runs_b.append(timeit.timeit(b, number=number) / number)
    return runs_a, runs_b


def _best_us(a, b, *, number: int) -> tuple[float, float]:
    """:func:`_interleaved`, each side's best run in microseconds."""
    runs_a, runs_b = _interleaved(a, b, number=number)
    return min(runs_a) * 1e6, min(runs_b) * 1e6


#: ``_codec_ratios``' encode limit.  It sits between the two readings it
#: must tell apart (``docs/performance.md``): orjson writes the request in
#: about 0.35x the stdlib encoder's time, and an encode that falls back
#: reads about 1.2x (the guards, then the stdlib encoder).
ENCODE_RATIO_LIMIT = 0.7

#: ``_codec_ratios``' decode limit, in the same sense: a request whose menu
#: the table holds decodes in about 0.5x the time ``json.loads`` parses its
#: line; with the table bypassed (orjson parses the menu, the checks walk
#: it) it reads about 1.2x, and with the stdlib decoding it about 1.7x.
MENU_TABLE_RATIO_LIMIT = 0.8


def _codec_ratios() -> bool:
    """The wire codec's shape as ratios, not microseconds: both sides of
    each ratio are the best of five ``timeit`` runs, taken alternately in
    this process (:func:`_interleaved`), so a slow or noisy box moves them
    together.  The encode leg is measured against the stdlib encoder of
    the same payload (the bytes must be equal), the decode leg against
    ``json.loads`` of the request's own line."""
    print("== perf: codec ratios on the 21-option menu", flush=True)
    import json

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
    payload = {"src_id": 17, "dst_id": 42, "t_hours": 36.0, "options": menu,
               "type": "request", "corr_id": 123456}
    line = encode_message(request)
    text = line.decode()

    def stdlib_encode() -> bytes:
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")

    if stdlib_encode() != line:
        print("ci-check: FAILED at codec-ratios (encode_message and the stdlib "
              "encoder wrote different bytes)")
        return False
    warm = menu[-1]
    built = decode_option(warm)
    decode_message(line)  # the menu table now holds this menu

    encode, reference = _best_us(lambda: encode_message(request), stdlib_encode, number=2000)
    decode, parse = _best_us(lambda: decode_message(line), lambda: json.loads(text), number=2000)
    probe, build = _best_us(
        lambda: decode_option(warm),
        lambda: RelayOption(OptionKind.TRANSIT, built.ingress, built.egress),
        number=20000,
    )
    print(
        f"  encode_request {encode:.1f} us vs the stdlib encoder {reference:.1f} us "
        f"({encode / reference:.2f}x, limit {ENCODE_RATIO_LIMIT}x); warm decode_request "
        f"{decode:.1f} us vs json.loads {parse:.1f} us ({decode / parse:.2f}x, limit "
        f"{MENU_TABLE_RATIO_LIMIT}x); warm decode_option {probe:.2f} us vs "
        f"RelayOption() {build:.2f} us ({probe / build:.2f}x, limit 0.5x)"
    )
    if encode >= ENCODE_RATIO_LIMIT * reference:
        print(f"ci-check: FAILED at codec-ratios (encoding a request costs "
              f"{ENCODE_RATIO_LIMIT}x the stdlib encoder or more: has encode_message "
              "fallen back from orjson?)")
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

    fast, slow = (
        t / len(calls)
        for t in _best_us(lambda: compiled(ours), lambda: reference(ours), number=1)
    )
    print(
        f"  sample_call {fast:.1f} us vs reference composition {slow:.1f} us "
        f"({fast / slow:.2f}x, limit 0.5x), streams equal over {len(calls)} calls"
    )
    if fast >= 0.5 * slow:
        print("ci-check: FAILED at sampler-ratio (sampling a call costs half "
              "its object-by-object definition: is the compiled walk in use?)")
        return False
    return True


#: ``_trace_ratio``'s limit.  It sits between the readings it must tell
#: apart (``docs/performance.md``, *The trace generator*): ``generate_trace``
#: reads ~0.3x its scalar-draw definition; with the per-call loop back on
#: scalar ``rng.integers``/``rng.random`` it reads ~0.5x, with the population
#: back on ``rng.choice`` ~0.67x, and with both (the definition itself) ~0.9x.
TRACE_RATIO_LIMIT = 0.4


def _trace_ratio() -> bool:
    """The trace generator against its definition (the scalar draws
    written out in ``tests/trace_reference.py``): the same calls, field for
    field and type for type, under :data:`TRACE_RATIO_LIMIT` of the time,
    on ``perf/``'s probe config -- in the form of :func:`_sampler_ratio`."""
    print("== perf: generate_trace vs the scalar-draw reference", flush=True)
    from repro.netmodel import TopologyConfig, build_topology
    from repro.workload import WorkloadConfig, generate_trace
    from tests.trace_reference import reference_generate_trace

    topology = build_topology(TopologyConfig(n_countries=20, n_relays=10))
    config = WorkloadConfig(n_calls=20_000, n_pairs=600)

    def typed(trace):
        return [tuple((type(v), v) for v in call) for call in trace.calls]

    if typed(generate_trace(topology, config, n_days=10)) != typed(
        reference_generate_trace(topology, config, n_days=10)
    ):
        print("ci-check: FAILED at trace-ratio (generate_trace and the reference "
              "produced different traces)")
        return False

    fast, slow = _interleaved(
        lambda: generate_trace(topology, config, n_days=10),
        lambda: reference_generate_trace(topology, config, n_days=10),
        number=1,
    )
    print(
        f"  generate_trace {min(fast):.3f} s vs reference {min(slow):.3f} s "
        f"({min(fast) / min(slow):.2f}x, limit {TRACE_RATIO_LIMIT}x), traces equal over "
        f"{config.n_calls} calls; runs (s) generate_trace "
        f"{' / '.join(f'{t:.3f}' for t in fast)}, reference "
        f"{' / '.join(f'{t:.3f}' for t in slow)}"
    )
    if min(fast) >= TRACE_RATIO_LIMIT * min(slow):
        print(f"ci-check: FAILED at trace-ratio (a trace costs {TRACE_RATIO_LIMIT}x its "
              "scalar-draw definition or more: are the draws read from raw words?)")
        return False
    return True


#: ``_record_ratio``'s limits, per class: the time to build a record over
#: the time to build its frozen slots-dataclass twin (the form these records
#: had before they were tuples, ``docs/performance.md``, *Per-call records*),
#: which reads ~1.0x by construction.  ``Call`` reads ~0.2x: its twin makes
#: fourteen ``object.__setattr__`` calls.  A three- or four-field record reads
#: ~0.4-0.6x, because the one Python-level ``__new__`` both forms pay is most
#: of what is left.
RECORD_RATIO_LIMITS = {"Call": 0.5, "CallOutcome": 0.8, "PathMetrics": 0.8}


def _record_ratio() -> bool:
    """Building the per-call records against building the same values as
    frozen slots dataclasses with the same fields, defaults and checks,
    defined here -- in the form of :func:`_codec_ratios`.  A record put back
    on ``@dataclass(frozen=True)`` reads ~1.0x and fails."""
    print("== perf: per-call records vs frozen-dataclass twins", flush=True)
    import inspect
    from dataclasses import MISSING, dataclass, fields

    from repro.netmodel.metrics import PathMetrics
    from repro.netmodel.options import RelayOption
    from repro.telephony.call import Call, CallOutcome

    @dataclass(frozen=True, slots=True)
    class FrozenCall:
        call_id: int
        t_hours: float
        src_asn: int
        dst_asn: int
        src_country: str
        dst_country: str
        src_user: int
        dst_user: int
        duration_s: float = 180.0
        src_prefix: int = 0
        dst_prefix: int = 0
        src_wireless: bool = False
        dst_wireless: bool = False
        direct_blocked: bool = False

        def __post_init__(self) -> None:
            if self.t_hours < 0.0:
                raise ValueError(f"t_hours must be >= 0: {self.t_hours}")
            if self.duration_s <= 0.0:
                raise ValueError(f"duration_s must be > 0: {self.duration_s}")

    @dataclass(frozen=True, slots=True)
    class FrozenCallOutcome:
        call: object
        option: object
        metrics: object
        rating: int | None = None

        def __post_init__(self) -> None:
            if self.rating is not None and not 1 <= self.rating <= 5:
                raise ValueError(f"rating must be in 1..5: {self.rating}")

    @dataclass(frozen=True, slots=True)
    class FrozenPathMetrics:
        rtt_ms: float
        loss_rate: float
        jitter_ms: float

        def __post_init__(self) -> None:
            if self.rtt_ms < 0.0:
                raise ValueError(f"rtt_ms must be non-negative: {self.rtt_ms}")
            if not 0.0 <= self.loss_rate <= 1.0:
                raise ValueError(f"loss_rate must be in [0, 1]: {self.loss_rate}")
            if self.jitter_ms < 0.0:
                raise ValueError(f"jitter_ms must be non-negative: {self.jitter_ms}")

    n = 1000
    call_rows = [
        (i, 0.5 * i, 100 + i % 50, 200 + i % 70, "US", "GB", i, i + 1, 120.0,
         i % 4, i % 3, i % 2 == 1, False, i % 5 == 0)
        for i in range(n)
    ]
    metrics_rows = [(100.0 + i % 90, 0.001 * (i % 20), 2.0 + i % 7) for i in range(n)]
    option = RelayOption.bounce(1)
    outcome_rows = [
        (Call(*c), option, PathMetrics(*m), 1 + i % 5 if i % 3 else None)
        for i, (c, m) in enumerate(zip(call_rows, metrics_rows))
    ]
    ok = True
    for cls, frozen, rows in (
        (Call, FrozenCall, call_rows),
        (CallOutcome, FrozenCallOutcome, outcome_rows),
        (PathMetrics, FrozenPathMetrics, metrics_rows),
    ):
        declared = {f.name: f.default for f in fields(frozen)}
        signature = {
            name: MISSING if p.default is p.empty else p.default
            for name, p in inspect.signature(cls).parameters.items()
        }
        if list(signature.items()) != list(declared.items()) or any(
            [getattr(cls(*row), name) for name in declared]
            != [getattr(frozen(*row), name) for name in declared]
            for row in rows[:50]
        ):
            print(f"ci-check: FAILED at record-ratio ({cls.__name__} and its twin "
                  "differ in fields, defaults or values)")
            return False
        fast, slow = (
            t / n
            for t in _best_us(
                lambda: [cls(*row) for row in rows],
                lambda: [frozen(*row) for row in rows],
                number=20,
            )
        )
        limit = RECORD_RATIO_LIMITS[cls.__name__]
        print(f"  {cls.__name__} {fast:.2f} us vs frozen-dataclass twin {slow:.2f} us "
              f"({fast / slow:.2f}x, limit {limit}x)")
        if fast >= limit * slow:
            print(f"ci-check: FAILED at record-ratio (building a {cls.__name__} costs "
                  f"{limit}x its frozen-dataclass twin or more: is it a dataclass again?)")
            ok = False
    return ok


def _wal_ratio() -> bool:
    """Logging a validated wire line against logging the same message as
    values (the typed helpers ``perf/`` times, which must ``json.dumps``
    them) -- in the form of :func:`_codec_ratios`."""
    print("== perf: WAL append of a wire line vs the same record as values", flush=True)
    import tempfile

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

    with tempfile.TemporaryDirectory(prefix="via-ci-wal-") as tmp:
        store = Store(tmp, StoreConfig(fsync="off"))
        try:
            request_line, request_values = _best_us(
                lambda: store.log_line("request", request),
                lambda: store.log_request(17, 42, 36.0, menu),
                number=2000,
            )
            measurement_line, measurement_values = _best_us(
                lambda: store.log_line("measurement", measurement),
                lambda: store.log_measurement(*measured),
                number=2000,
            )
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

    fast, slow = (
        [t * 1e3 for t in runs]
        for runs in _interleaved(lambda: vector(fresh()), lambda: scalar(fresh()), number=1)
    )
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


#: ``_snapshot_ratio``'s limit: the traced peak of one ``Store.snapshot``
#: over the size of the file it writes.  It sits between the readings it
#: must tell apart (``docs/persistence.md``, *Snapshot cost*): shared leaves
#: and a streamed write read ~2.1x; one dict per option mention ~4.8x; the
#: whole text built by one ``json.dumps`` ~5.0x; both at once ~7.8x.
SNAPSHOT_RATIO_LIMIT = 3.2


def _snapshot_ratio() -> bool:
    """The snapshot's transient memory as a multiple of its file: the
    tracemalloc peak of ``Store.snapshot`` on a seeded 3,000-call state
    (``scripts/snapshot_fixture.py``) over the bytes written.  Allocation
    counts repeat exactly, so this leg needs no timing and no alternation."""
    print("== perf: Store.snapshot peak memory vs its file", flush=True)
    import gc
    import tempfile
    import tracemalloc

    from repro.store import Store, StoreConfig
    from scripts.snapshot_fixture import build_controller

    controller = build_controller(n_calls=3000, n_clients=64)
    with tempfile.TemporaryDirectory(prefix="via-ci-snapshot-") as tmp:
        store = Store(tmp, StoreConfig(fsync="off"))
        try:
            gc.collect()
            tracemalloc.start()
            try:
                store.snapshot(controller)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = store.snapshot_path.stat().st_size
        finally:
            store.close()
    ratio = peak / size
    print(
        f"  snapshot peak {peak / 2**20:.2f} MiB for a {size / 2**20:.2f} MiB file "
        f"({ratio:.2f}x, limit {SNAPSHOT_RATIO_LIMIT}x)"
    )
    if ratio >= SNAPSHOT_RATIO_LIMIT:
        print(f"ci-check: FAILED at snapshot-ratio (a snapshot holds {SNAPSHOT_RATIO_LIMIT}x "
              "its file or more: are option dicts built per mention, or the text whole?)")
        return False
    return True


def _perf_smoke(env: dict[str, str]) -> bool:
    """The repo benchmark's correctness checks (``make perf-smoke``), after
    the codec, sampler, trace, record, WAL, vector and snapshot ratio checks."""
    if not (
        _codec_ratios()
        and _sampler_ratio()
        and _trace_ratio()
        and _record_ratio()
        and _wal_ratio()
        and _vector_ratio()
        and _snapshot_ratio()
    ):
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


def _reject_constant(name: str) -> NoReturn:
    raise ValueError(f"non-finite constant {name}")


def _contract_problem(stdout: str, bench: dict, trace: int) -> str | None:
    """What is wrong with the last stdout line of one driver-form run, or
    None: it must be strict JSON (no NaN, Infinity or null), ``correct``
    true, and every metric a finite number, in ``BENCHMARK.json`` order."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return "printed nothing"
    try:
        contract = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return f"last line is not strict JSON ({exc}): {lines[-1][:200]}"
    if not isinstance(contract, dict) or contract.get("correct") is not True:
        return f"not correct: {lines[-1][:200]}"
    spec = [entry["name"] for entry in bench["per_layer" if trace else "end_to_end"]]
    metrics = contract.get("metrics")
    if not isinstance(metrics, dict) or list(metrics) != spec:
        return "metric names differ from BENCHMARK.json's, or their order does"
    bad = [
        name for name, metric in metrics.items()
        if not isinstance(metric, dict)
        or isinstance(metric.get("value"), bool)
        or not isinstance(metric.get("value"), (int, float))
        or not math.isfinite(metric["value"])
    ]
    if bad:
        return "not a finite number: " + ", ".join(bad)
    return None


def _contract_leg(env: dict[str, str]) -> bool:
    """Every ``BENCHMARK.json`` workload in the driver's form, both trace
    modes, one second each: the output contract the driver parses."""
    print("== perf: the driver's output contract, every workload x trace 0/1", flush=True)
    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, "perf/run.py", "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace)]
            result = subprocess.run(
                argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600
            )
            if result.returncode != 0:
                problem = f"exit {result.returncode}: {result.stderr[-1000:]}"
            else:
                problem = _contract_problem(result.stdout, bench, trace)
            print(f"  {workload} --trace {trace}: {problem or 'ok'}")
            ok = ok and problem is None
    if not ok:
        print("ci-check: FAILED at the output contract (the benchmark driver would "
              "refuse these runs as malformed)")
    return ok


def main() -> int:
    import platform

    import orjson

    print(f"ci-check: Python {platform.python_version()}, orjson {orjson.__version__}")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("REPRO_HYPOTHESIS_PROFILE", "ci")
    if not _import_leg(env):
        return 1
    steps = (
        ("docs-check", [sys.executable, "scripts/check_docs.py"]),
        ("tier-1 tests", [sys.executable, "-m", "pytest", "tests/"]),
    )
    for step, argv in steps:
        if not _run(step, argv, env):
            return 1
    # The repo root too: the ratio legs import ``tests.sampler_reference``,
    # ``tests.vector_stream`` and ``scripts.snapshot_fixture``.
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
    if not _contract_leg(env):
        return 1
    print(
        "ci-check: OK (imports, docs, tier-1, verify + coverage floor, shard smoke, "
        "registry lint, soak smoke, ratio legs + perf smoke, output contract)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
