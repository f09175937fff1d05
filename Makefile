# Convenience targets for the VIA reproduction.

PYTHON ?= python
# Worker processes for parallel-capable benchmarks: make bench WORKERS=4
WORKERS ?= 1

.PHONY: install test test-async test-faults test-multipath test-parallel test-shard test-soak test-store test-vector test-verify check docs-check perf-smoke bench bench-record examples quick-bench all clean

install:
	pip install -e .

# The full run covers every tests/ file with no marker deselected, so the
# named test-* suites below are subsets kept for local use; `test` adds
# only what it does not cover: docs-check, and test-parallel for its
# REPRO_TEST_WORKERS=2 pool shape.
test: docs-check test-parallel
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Documentation referential integrity: fail on dangling repro.* symbol
# refs, file paths, markdown links or pytest node ids in the docs.
docs-check:
	PYTHONPATH=src $(PYTHON) scripts/check_docs.py

# Asyncio controller frontend: protocol v2 pipelining, admission ladder,
# hostile-client hardening (slow loris, oversized lines, mid-request
# disconnects) and the v1 back-compat conformance checks.
test-async:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_async_controller.py -m asyncio

# Fault-injection and resilience suite only (chaos mode, outages, recovery).
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -m faults

# Serial-vs-parallel replay equivalence suite, forced through real worker
# processes (REPRO_TEST_WORKERS=2 makes the pool path non-optional).
test-parallel:
	REPRO_TEST_WORKERS=2 PYTHONPATH=src $(PYTHON) -m pytest tests/test_parallel.py

# Vectorized hot path: batch-vs-scalar equivalence property tests
# (assign_many/observe_many against the scalar oracle, columnar layers,
# batched replay), and the scalar path's float/cached pieces against
# their array forms -- see docs/performance.md.
test-vector:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_vector.py tests/test_scalar_path.py -m vector

# Multipath relaying subsystem: path-set algebra, combined-reward bound
# properties, the bandit-over-path-pairs policy, and the chaos replay
# accounting (degraded vs dead path sets under relay outages).
test-multipath:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_multipath.py -m multipath

# Sharded controller ring: consistent-hash routing + redirect repair,
# gossip replication, ShardedPolicy checkpoint/batch contracts, and the
# multiprocess WAL-failover acceptance test.
test-shard:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_ring.py tests/test_sharding.py

# Chaos soak harness: seconds-scale budgets of the time-compressed
# endurance loop (snapshot/compact/kill/recover on schedule, planted
# leaks tripping their named invariant, report + CLI contracts).  The
# real endurance run is `repro soak` -- see docs/soak.md.
test-soak:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_soak.py -m soak

# Durable storage plane: WAL framing/rotation, compaction, and the
# crash-recovery equivalence contract (snapshot + WAL-tail replay).
test-store:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_store.py tests/test_store_recovery.py

# Conformance verification plane: the verify-marked unit tests plus the
# acceptance-sized `repro verify` run (differential + crash sweep +
# lifecycle state machine), reproducible from the printed seed.
test-verify:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_verify.py tests/test_verify_statemachine.py
	PYTHONPATH=src $(PYTHON) -m repro verify --budget full

# One-shot CI gate: docs integrity, the tier-1 suite, and a small-budget
# verification run with a line-coverage floor on the verify plane itself.
check:
	PYTHONPATH=src $(PYTHON) scripts/ci_check.py

# The repo benchmark (BENCHMARK.json, perf/README.md) at smoke scale:
# the harness self-tests, then one second of every workload -- exits
# non-zero when any workload's correctness checks fail.  `make check`
# runs the same two commands.
perf-smoke:
	$(PYTHON) -m pytest perf/tests -q
	$(PYTHON) perf/run.py --smoke --seed 1 --out perf/out/smoke

bench:
	REPRO_BENCH_WORKERS=$(WORKERS) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Record the quality baselines: runs the two recording benchmarks with
# REPRO_BENCH_RECORD=1, each writing its own BENCH_<area>.json at the repo
# root (diffable across PRs; nothing gates on them -- perf/ owns speed).
bench-record:
	REPRO_BENCH_RECORD=1 PYTHONPATH=src $(PYTHON) -m pytest \
	    benchmarks/bench_ext_multipath.py benchmarks/bench_ext_sharded_controller.py \
	    --benchmark-only

# A fast subset: the headline figure plus the live deployment.
quick-bench:
	$(PYTHON) -m pytest benchmarks/bench_fig12_via_improvement.py \
	    benchmarks/bench_fig18_deployment.py --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/international_calling.py
	$(PYTHON) examples/budgeted_relaying.py
	$(PYTHON) examples/live_controller.py
	$(PYTHON) examples/hybrid_reactive.py
	$(PYTHON) examples/mos_optimization.py

all: install test bench

clean:
	rm -rf .pytest_cache benchmarks/results src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
