"""The trace generator's raw-word reader against its definition.

``generate_trace`` reads each call's draws from the PCG64 bit generator's
raw words (``_scalar_draws``) and picks population ASes from one CDF
(``_weighted_picker``).  What that must reproduce is written out with
scalar ``rng.choice``/``rng.integers``/``rng.random`` calls in
``tests/trace_reference.py``.  Three things hold it there:

* golden digests of four traces, taken before the reader existed, over
  every ``Call`` field's type name and value (the replay digests in
  ``tests/test_replay.py`` hash outcomes, which never read a user id);
* a differential, ``generate_trace`` == ``reference_generate_trace`` over
  generated workloads, and a property of the reader alone against a
  ``Generator`` cloned from an arbitrary state;
* planted bugs, each in a fresh copy of the generator module, that the
  reader property must catch.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import random as pyrandom
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.netmodel.topology import TopologyConfig, build_topology
from repro.telephony.call import Call
from repro.workload import WorkloadConfig, generate_trace
from repro.workload import generator
from tests.trace_reference import reference_generate_trace

_FIELDS = Call._fields


def trace_digest(calls) -> str:
    """sha256 over every field of every call, as ``(type name, value)``."""
    sha = hashlib.sha256()
    for call in calls:
        row = [(type(value).__name__, value) for value in (getattr(call, f) for f in _FIELDS)]
        sha.update(repr(row).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def typed(calls) -> list:
    return [tuple((type(getattr(c, f)), getattr(c, f)) for f in _FIELDS) for c in calls]


# ----------------------------------------------------------------------
# Golden traces
# ----------------------------------------------------------------------

#: ``tests/test_replay.py``'s pinned world.
_PIN_TOPOLOGY = TopologyConfig(n_countries=8, n_relays=5, seed=41)
#: The replay benchmark's world (``perf/workloads.py``).
_REPLAY_TOPOLOGY = TopologyConfig(n_countries=20, n_relays=10, seed=20160822)
#: Most ASes have a single prefix, so most prefix draws are skipped.
_ONE_PREFIX_TOPOLOGY = TopologyConfig(n_countries=8, n_relays=5, prefixes_per_as=1.0, seed=3)

#: id -> (topology, workload, n_days, sha256 of the trace).  The digests
#: were taken from the scalar-draw generator ``tests/trace_reference.py``
#: keeps; any change to the generator must still produce them.
_GOLDEN = {
    "pin_trace": (
        _PIN_TOPOLOGY,
        WorkloadConfig(n_calls=1_500, n_pairs=60, frac_direct_blocked=0.1, seed=47),
        4,
        "0296e494c252490fa82da3c6c5c9af6a03bdd1bf02c482db4fb803dfea96f330",
    ),
    "replay_reference": (
        _REPLAY_TOPOLOGY,
        WorkloadConfig(n_calls=100_001, n_pairs=600, seed=2016),
        10,
        "b0cd50654511278ecc09aba401628edc2e5a3746368fba73154d368d65661cbf",
    ),
    "one_prefix_ases": (
        _ONE_PREFIX_TOPOLOGY,
        WorkloadConfig(n_calls=5_000, n_pairs=200, frac_direct_blocked=0.3, seed=5),
        7,
        "79c7b9c39b696a4601ea673027714057aeabbbb61fb7a360d417a9ac7c65b058",
    ),
    "pools_past_2_32": (
        _ONE_PREFIX_TOPOLOGY,
        WorkloadConfig(n_calls=3_000, n_pairs=200, users_per_as=10**10, seed=11),
        7,
        "75e5103a7567b2ddaedd9f626383e1a9df2329bf5e007ba8cfdf4214362090b5",
    ),
}


@pytest.fixture(scope="module")
def topologies():
    return {
        config: build_topology(config)
        for config in (_PIN_TOPOLOGY, _REPLAY_TOPOLOGY, _ONE_PREFIX_TOPOLOGY)
    }


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_trace_digest_is_pinned(topologies, case):
    topology_config, config, n_days, digest = _GOLDEN[case]
    trace = generate_trace(topologies[topology_config], config, n_days=n_days)
    assert len(trace.calls) == config.n_calls
    assert trace_digest(trace.calls) == digest


@pytest.mark.parametrize(
    "case,reached",
    [("one_prefix_ases", lambda bounds: bounds.count(1) > 1000),
     ("pools_past_2_32", lambda bounds: sum(n > 2**32 for n in bounds) > 1000)],
)
def test_the_pinned_configs_reach_their_branch(topologies, monkeypatch, case, reached):
    """One golden config draws from 1-prefix ASes (no word spent), the
    other from user pools past 2**32 (the 64-bit branch)."""
    bounds = []

    def recording(rng):
        integers, random = scalar_draws(rng)

        def recorded(n):
            bounds.append(n)
            return integers(n)

        return recorded, random

    scalar_draws = generator._scalar_draws
    monkeypatch.setattr(generator, "_scalar_draws", recording)
    topology_config, config, n_days, digest = _GOLDEN[case]
    trace = generate_trace(topologies[topology_config], config, n_days=n_days)
    assert trace_digest(trace.calls) == digest
    assert reached(bounds)


def test_right_words_but_wrong_user_ids_fail_the_pin(topologies):
    """A generator that spends the right words but computes user ids
    wrongly leaves every other field, and so every replay outcome, as it
    was: only the golden digests see it."""
    module = planted(
        "        src_user = src_base + integers(src_pool)\n",
        "        src_user = src_base + (integers(src_pool) + 1) % src_pool\n",
    )
    topology_config, config, n_days, digest = _GOLDEN["pin_trace"]
    topology = topologies[topology_config]
    ours = module.generate_trace(topology, config, n_days=n_days).calls
    theirs = reference_generate_trace(topology, config, n_days=n_days).calls
    assert [c._replace(src_user=0) for c in ours] == [c._replace(src_user=0) for c in theirs]
    assert trace_digest(ours) != digest


# ----------------------------------------------------------------------
# The differential: generate_trace is its definition
# ----------------------------------------------------------------------

_DIFF_TOPOLOGIES = {
    "small": TopologyConfig(n_countries=4, n_relays=3, seed=5),
    "one-prefix": TopologyConfig(n_countries=5, n_relays=3, prefixes_per_as=1.0, seed=9),
    "eight": TopologyConfig(n_countries=8, n_relays=4, seed=3),
}


@functools.cache
def _topology(name: str):
    return build_topology(_DIFF_TOPOLOGIES[name])


def _outcome(make):
    try:
        return typed(make().calls)
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(
    topology=st.sampled_from(sorted(_DIFF_TOPOLOGIES)),
    seed=st.integers(0, 2**32 - 1),
    n_calls=st.integers(1, 400),
    n_pairs=st.integers(1, 80),
    n_days=st.integers(1, 15),
    frac_intra_as=st.floats(0.0, 0.5),
    frac_international=st.floats(0.0, 0.5),
    frac_direct_blocked=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    users_per_as=st.one_of(
        st.integers(1, 5_000), st.sampled_from([10**9, 2**40 + 7, 10**12])
    ),
)
@example(topology="one-prefix", seed=11, n_calls=400, n_pairs=40, n_days=7,
         frac_intra_as=0.193, frac_international=0.466, frac_direct_blocked=0.3,
         users_per_as=10**9)
def test_generate_trace_is_the_reference(
    topology, seed, n_calls, n_pairs, n_days, frac_intra_as, frac_international,
    frac_direct_blocked, users_per_as,
):
    config = WorkloadConfig(
        n_calls=n_calls, n_pairs=n_pairs, frac_intra_as=frac_intra_as,
        frac_international=frac_international, frac_direct_blocked=frac_direct_blocked,
        users_per_as=users_per_as, seed=seed,
    )
    built = _topology(topology)
    ours = _outcome(lambda: generate_trace(built, config, n_days=n_days))
    theirs = _outcome(lambda: reference_generate_trace(built, config, n_days=n_days))
    assert ours == theirs


# ----------------------------------------------------------------------
# The reader against a Generator
# ----------------------------------------------------------------------

#: Bounds for ``integers``: no draw (1), Lemire on a 32-bit half with rare
#: and with frequent rejections (2**31 + 1 rejects about half its halves),
#: the bare half (2**32), and the 64-bit Lemire either side of 2**32.
BOUNDS = (1, 2, 3, 10, 4999, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1,
          2**40 + 7, 2**63 - 25, 2**63)


def generator_at(seed: int, has_uint32: bool, uinteger: int) -> np.random.Generator:
    """A ``Generator`` on a seeded PCG64 with the buffered half set."""
    bit_generator = np.random.PCG64(seed)
    state = bit_generator.state
    state["has_uint32"] = int(has_uint32)
    state["uinteger"] = uinteger
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def reader_draws(module, rng: np.random.Generator, ops) -> list:
    """``module``'s reader on ``rng``: ``integers(n)`` per int in ``ops``,
    ``random()`` per None."""
    integers, random = module._scalar_draws(rng)
    return [(type(v), v) for v in (random() if n is None else integers(n) for n in ops)]


def generator_draws(rng: np.random.Generator, ops) -> list:
    return [
        (type(v), v) for v in (rng.random() if n is None else int(rng.integers(n)) for n in ops)
    ]


@given(
    seed=st.integers(0, 2**128 - 1),
    has_uint32=st.booleans(),
    uinteger=st.integers(0, 2**32 - 1),
    ops=st.lists(
        st.one_of(st.none(), st.sampled_from(BOUNDS), st.integers(1, 2**63)), max_size=80
    ),
)
def test_the_reader_is_scalar_integers_and_random(seed, has_uint32, uinteger, ops):
    ours = reader_draws(generator, generator_at(seed, has_uint32, uinteger), ops)
    assert ours == generator_draws(generator_at(seed, has_uint32, uinteger), ops)


def test_the_reader_reads_across_chunks():
    ops = [BOUNDS[i % len(BOUNDS)] if i % 3 else None for i in range(3 * generator._RAW_CHUNK)]
    rng = generator_at(17, True, 123)
    assert reader_draws(generator, rng, ops) == generator_draws(generator_at(17, True, 123), ops)


@pytest.mark.parametrize("n", [0, -1, 2**63 + 1])
def test_the_reader_refuses_what_integers_refuses(n):
    with pytest.raises(ValueError):
        np.random.default_rng(1).integers(n)
    integers, _ = generator._scalar_draws(np.random.default_rng(1))
    with pytest.raises(ValueError):
        integers(n)


# ----------------------------------------------------------------------
# Planted bugs: each, in a fresh copy of the module, fails the reader
# ----------------------------------------------------------------------


def planted(old: str | None = None, new: str = "") -> types.ModuleType:
    """A fresh copy of the generator module, ``old`` in its source
    replaced by ``new``."""
    source = inspect.getsource(generator)
    if old is not None:
        assert source.count(old) == 1, f"planted-bug anchor moved: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("planted_generator")
    sys.modules[module.__name__] = module  # dataclasses looks its module up
    try:
        exec(compile(source, generator.__file__, "exec"), vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


def reader_mismatches(module) -> int:
    """Draws where ``module``'s reader and a ``Generator`` disagree, over
    40 fixed interleavings of ``BOUNDS`` and ``random()`` from states with
    and without a buffered half."""
    mismatches = 0
    for seed in range(20):
        picker = pyrandom.Random(seed)
        ops = [None if picker.random() < 0.3 else picker.choice(BOUNDS) for _ in range(300)]
        for has_uint32 in (False, True):
            start = (seed, has_uint32, picker.getrandbits(32))
            ours = reader_draws(module, generator_at(*start), ops)
            theirs = generator_draws(generator_at(*start), ops)
            mismatches += sum(a != b for a, b in zip(ours, theirs))
    return mismatches


class TestPlantedBugs:
    def test_the_unchanged_copy_passes(self):
        assert reader_mismatches(planted()) == 0

    def test_ignoring_the_incoming_buffer_is_caught(self):
        module = planted('    has_half = bool(state["has_uint32"])\n', "    has_half = False\n")
        assert reader_mismatches(module) > 0

    def test_dropping_the_rejection_loop_is_caught(self):
        module = planted(
            "                if low >= n or low >= (_MASK32 - r) % n:\n",
            "                if True:\n",
        )
        assert reader_mismatches(module) > 0

    def test_routing_two_to_the_32_to_the_64_bit_branch_is_caught(self):
        module = planted("        if 0 < r <= _MASK32:\n", "        if 0 < r < _MASK32:\n")
        assert reader_mismatches(module) > 0

    def test_a_random_that_consumes_the_buffered_half_is_caught(self):
        module = planted(
            "    def random() -> float:\n",
            "    def random() -> float:\n        nonlocal has_half\n        has_half = False\n",
        )
        assert reader_mismatches(module) > 0
