"""Tomography's numpy LSQR against scipy's, bit for bit.

``TomographyModel.fit`` solves with ``_lsqr``, scipy's
``scipy.sparse.linalg.lsqr`` transcribed on numpy, over A's entries in the
CSR order ``coo_matrix(...).tocsr()`` would give them.  What it must
reproduce is the fit as it stood with scipy, kept verbatim in
``tests/tomography_reference.py``.  Three things hold it there:

* sha256 pins of fitted models for seeded observation sets, taken while
  ``fit`` still called scipy.  They run without scipy;
* differentials with scipy installed (the ``dev`` extra): ``fit`` against
  the reference over generated observation sets, and ``_lsqr`` against
  ``scipy.sparse.linalg.lsqr`` over generated CSR systems;
* planted bugs, each in a fresh copy of the module, that the pins catch.
"""

from __future__ import annotations

import hashlib
import inspect
import random
import types

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core import tomography
from repro.core.history import RunningStat
from repro.core.tomography import TomographyModel, _lsqr
from repro.netmodel.metrics import PathMetrics
from repro.netmodel.options import DIRECT, RelayOption


def inter_relay(r1: int, r2: int) -> PathMetrics:
    """A fixed backbone: transit observations subtract it."""
    return PathMetrics(
        rtt_ms=8.0 + 3.5 * abs(r1 - r2), loss_rate=0.0005 * ((r1 + r2) % 5), jitter_ms=0.3 + 0.1 * r2
    )


def stat_of(rtt: float, loss: float, jitter: float, count: int) -> RunningStat:
    """``count`` pushes spread around (rtt, loss, jitter)."""
    stat = RunningStat()
    spread = np.linspace(0.9, 1.1, count) if count > 1 else np.ones(1)
    stat.push_many(np.column_stack((rtt * spread, np.minimum(loss * spread, 1.0), jitter * spread)))
    return stat


def seeded_observations(
    seed: int, n_sides: int, n_relays: int, n_obs: int, *, frac_transit: float = 0.4,
    frac_same_side: float = 0.1,
) -> list:
    """A window of observations: bounce and transit rows over ``n_sides``
    sides, some direct rows (ignored by the fit), some with both ends on
    one side, and Zipf-ish counts."""
    rng = random.Random(seed)
    observations = []
    for _ in range(n_obs):
        s = rng.randrange(n_sides)
        d = s if rng.random() < frac_same_side else rng.randrange(n_sides)
        u = rng.random()
        r1 = rng.randrange(n_relays)
        if u < 0.05:
            option = DIRECT
        elif u < 0.05 + frac_transit and n_relays > 1:
            option = RelayOption.transit(r1, (r1 + rng.randrange(1, n_relays)) % n_relays)
        else:
            option = RelayOption.bounce(r1)
        count = max(1, int(30 / rng.randint(1, 30)))
        stat = stat_of(rng.uniform(20.0, 400.0), rng.uniform(0.0, 0.06), rng.uniform(0.5, 40.0), count)
        observations.append(((s, d), option, stat))
    return observations


def model_digest(model: TomographyModel) -> str:
    """sha256 over the segments in key order: each key's repr, then the
    bytes of its estimate and its SEM."""
    digest = hashlib.sha256()
    for key, estimate in model._estimates.items():
        digest.update(repr(key).encode("utf-8"))
        digest.update(estimate.tobytes())
        digest.update(model._sems[key].tobytes())
    return digest.hexdigest()


#: (seed, n_sides, n_relays, n_obs, fit keywords) -> sha256 of the model
#: ``fit`` returned while it called scipy's ``coo_matrix`` and ``lsqr``.
PINS = {
    (1, 12, 4, 80, ()):
        "cf185a0a8d25a36034b1bc29dfa96c49b86758447abccc5a441ae3c7e2673b6e",
    (2, 40, 10, 400, ()):
        "10e5f496a911266964440109fab225979e9a8162b02964d3357319cdc04b39e2",
    (3, 6, 3, 25, (("damp", 0.0),)):
        "2dd220911cb7dc5e5116bc84f82d0ee38bfdf331a3f7efdcfb2cfae137a1d493",
    (4, 30, 6, 250, (("min_count", 3),)):
        "2ac70d4479747fc9033981a0c19865f557ee41ed65f394634189abeca9682d57",
    (5, 3, 2, 8, (("damp", 0.0),)):
        "11ff753c654ee3959e594647af42cbb9a35f187447deda15268d1613950b8d2f",
}


def pinned_fits(module=tomography):
    for (seed, n_sides, n_relays, n_obs, kwargs), pin in PINS.items():
        observations = seeded_observations(seed, n_sides, n_relays, n_obs)
        model = module.TomographyModel.fit(observations, inter_relay, **dict(kwargs))
        yield (seed, n_sides, n_relays, n_obs, kwargs), model_digest(model), pin


class TestPins:
    def test_fits_match_the_pins(self):
        for config, digest, pin in pinned_fits():
            assert digest == pin, config

    def test_the_pins_cover_the_solver_branches(self):
        """The pinned systems include a damp=0 solve, a min_count cut and
        a solve that runs past ``n`` iterations (iter_lim is ``2 * n``)."""
        seen = []
        solve = tomography._lsqr

        def spy(rows, cols, vals, shape, b, damp):
            result = solve(rows, cols, vals, shape, b, damp)
            seen.append((shape[1], damp, result[2]))
            return result

        tomography._lsqr = spy
        try:
            list(pinned_fits())
        finally:
            tomography._lsqr = solve
        assert any(damp == 0.0 for _, damp, _ in seen)
        assert any(itn > n for n, _, itn in seen)


# ----------------------------------------------------------------------
# Differentials against scipy (the ``dev`` extra)
# ----------------------------------------------------------------------

SIDES = st.one_of(st.integers(0, 5), st.sampled_from(["a", "b"]))
METRIC = st.tuples(
    st.floats(0.0, 500.0), st.floats(0.0, 0.2), st.floats(0.0, 60.0), st.integers(1, 6)
)
OBSERVATION = st.tuples(
    SIDES, SIDES, st.sampled_from(["direct", "bounce", "transit"]),
    st.integers(0, 3), st.integers(1, 3), METRIC,
)
ZERO = ("direct", 0, 1, (0.0, 0.0, 0.0, 1))


def build(specs) -> list:
    observations = []
    for s, d, kind, r1, hop, (rtt, loss, jitter, count) in specs:
        if kind == "direct":
            option = DIRECT
        elif kind == "bounce":
            option = RelayOption.bounce(r1)
        else:
            option = RelayOption.transit(r1, (r1 + hop) % 4)
        observations.append(((s, d), option, stat_of(rtt, loss, jitter, count)))
    return observations


def fits_equal(ours: TomographyModel, theirs: TomographyModel) -> bool:
    if list(ours._estimates) != list(theirs._estimates):
        return False
    return all(
        ours._estimates[k].tobytes() == theirs._estimates[k].tobytes()
        and ours._sems[k].tobytes() == theirs._sems[k].tobytes()
        for k in ours._estimates
    )


def zero_inter(r1: int, r2: int) -> PathMetrics:
    return PathMetrics(rtt_ms=0.0, loss_rate=0.0, jitter_ms=0.0)


class TestAgainstScipy:
    @given(
        specs=st.lists(OBSERVATION, max_size=40),
        min_count=st.sampled_from([1, 2, 4]),
        damp=st.sampled_from([0.0, 1e-3]),
    )
    @example(specs=[], min_count=1, damp=1e-3)
    @example(specs=[(1, 2, "bounce", 0, 1, (80.0, 0.01, 3.0, 2))], min_count=1, damp=0.0)
    @example(specs=[(1, 1, "bounce", 2, 1, (80.0, 0.01, 3.0, 2))], min_count=1, damp=1e-3)
    @example(  # every target zero: LSQR's beta == 0 early return
        specs=[(1, 2, "bounce", 0, 1, (0.0, 0.0, 0.0, 3)), (2, 3, "bounce", 0, 1, (0.0, 0.0, 0.0, 1))],
        min_count=1, damp=1e-3,
    )
    @example(  # rank-deficient: one bounce row, three unknowns shared
        specs=[(0, 1, "bounce", 0, 1, (90.0, 0.0, 4.0, 5)), (1, 2, "bounce", 0, 1, (70.0, 0.0, 2.0, 5)),
               (0, 2, "bounce", 0, 1, (60.0, 0.0, 9.0, 1)), (0, 1, "transit", 0, 1, (99.0, 0.0, 5.0, 3))],
        min_count=1, damp=0.0,
    )
    def test_fit_equals_the_scipy_fit(self, specs, min_count, damp):
        pytest.importorskip("scipy")
        from tests.tomography_reference import reference_fit

        observations = build(specs)
        for lookup in (inter_relay, zero_inter):
            ours = TomographyModel.fit(observations, lookup, min_count=min_count, damp=damp)
            theirs = reference_fit(observations, lookup, min_count=min_count, damp=damp)
            assert fits_equal(ours, theirs)

    @given(
        n_rows=st.integers(1, 30),
        n_cols=st.integers(1, 12),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
        damp=st.sampled_from([0.0, 1e-3, 0.5]),
        zero_b=st.booleans(),
    )
    def test_lsqr_equals_scipy_lsqr(self, n_rows, n_cols, density, seed, damp, zero_b):
        pytest.importorskip("scipy")
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import lsqr

        rng = np.random.default_rng(seed)
        mask = rng.random((n_rows, n_cols)) < density
        rows, cols = np.nonzero(mask)  # row-major, columns ascending
        vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-3, 4, rows.size)
        b = np.zeros(n_rows) if zero_b else rng.standard_normal(n_rows) * 50.0
        matrix = csr_matrix((vals, (rows, cols)), shape=(n_rows, n_cols))
        x, istop, itn = _lsqr(rows, cols, vals, (n_rows, n_cols), b, damp)
        expected = lsqr(matrix, b, damp=damp)
        assert x.tobytes() == expected[0].tobytes()
        assert (istop, itn) == (expected[1], expected[2])


# ----------------------------------------------------------------------
# Planted bugs: each, in a fresh copy of the module, fails the pins
# ----------------------------------------------------------------------


def planted(old: str | None = None, new: str = "") -> types.ModuleType:
    """A fresh copy of the tomography module, ``old`` in its source
    replaced by ``new``."""
    source = inspect.getsource(tomography)
    if old is not None:
        assert source.count(old) == 1, f"planted-bug anchor moved: {old!r}"
        source = source.replace(old, new)
    module = types.ModuleType("planted_tomography")
    exec(compile(source, tomography.__file__, "exec"), vars(module))
    return module


def pins_missed(module) -> int:
    return sum(digest != pin for _, digest, pin in pinned_fits(module))


class TestPlantedBugs:
    def test_the_unchanged_copy_passes(self):
        assert pins_missed(planted()) == 0

    def test_a_transpose_product_in_reverse_row_order_is_caught(self):
        module = planted(
            "        return _matvec(cols, rows, vals, u, n)\n",
            "        return _matvec(cols[::-1], rows[::-1], vals[::-1], u, n)\n",
        )
        assert pins_missed(module) > 0

    def test_an_iteration_limit_of_n_is_caught(self):
        assert pins_missed(planted("    iter_lim = 2 * n\n", "    iter_lim = n\n")) > 0

    def test_dropping_the_damping_rotation_is_caught(self):
        module = planted("        if damp > 0:\n            rhobar1", "        if False:\n            rhobar1")
        assert pins_missed(module) > 0

    def test_a_column_touched_twice_left_as_two_entries_is_caught(self):
        """``A.T @ u`` adds ``w*u`` twice into a running column sum where
        scipy adds ``(w + w)*u`` once: the roundings differ."""
        module = planted("            if col_s == col_d:\n", "            if False:\n")
        assert pins_missed(module) > 0
