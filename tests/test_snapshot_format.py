"""The store snapshot's bytes: a committed fixture and the streamed writer.

``tests/fixtures/snapshot-seed7.json`` was written by
``scripts/snapshot_fixture.py`` (which says how to regenerate it).  Two
things are pinned against it: ``Store.snapshot`` of the same seeded state
writes exactly its bytes, and the file recovers to a pinned
``controller_fingerprint``.  Under both sits ``atomic_write_json``, which
streams the text to disk and must write exactly what
``json.dumps(tree, separators=(",", ":"))`` returns, for any tree.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest
from hypothesis import example, given, strategies as st

from repro.core.policy import ViaConfig
from repro.deployment.controller import ViaController
from repro.store import Store, atomic_write_bytes, atomic_write_json, recover
from repro.store import facade
from repro.store.io import STREAM_LIST_LEN
from repro.verify import controller_fingerprint
from scripts.snapshot_fixture import FIXTURE, SEED, build_controller, write_snapshot

pytestmark = pytest.mark.store

#: sha256 of ``controller_fingerprint`` of the fixture's recovered state.
FINGERPRINT_SHA256 = "e8f52ee1e138d02a29230a74ec5affdcbe1dd3f6e3a326bd58f412a2ceabc5e4"


def _fingerprint(controller: ViaController) -> str:
    return hashlib.sha256(controller_fingerprint(controller).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The committed fixture
# ----------------------------------------------------------------------


def _writes_the_fixture(directory) -> bool:
    return write_snapshot(directory).read_bytes() == FIXTURE.read_bytes()


class TestSnapshotFixture:
    def test_the_fixture_is_small(self):
        assert FIXTURE.stat().st_size < 100_000

    def test_snapshot_of_the_seeded_state_is_the_fixture(self, tmp_path):
        assert _writes_the_fixture(tmp_path / "store")

    def test_the_fixture_recovers_to_the_pinned_fingerprint(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        shutil.copyfile(FIXTURE, root / "snapshot.json")
        store = Store(root)
        recovered = ViaController(ViaConfig(seed=SEED))
        try:
            report = recover(store, recovered)
        finally:
            store.close()
        assert report.snapshot_outcome == "ok" and report.n_replayed == 0
        assert _fingerprint(recovered) == FINGERPRINT_SHA256
        assert _fingerprint(build_controller()) == FINGERPRINT_SHA256

    @pytest.mark.parametrize(
        "dumps",
        [
            lambda payload: json.dumps(payload, separators=(",", ":"), sort_keys=True),
            lambda payload: json.dumps(payload),
        ],
        ids=["sorted-keys", "default-spacing"],
    )
    def test_a_reordering_or_respacing_writer_is_caught(self, tmp_path, monkeypatch, dumps):
        def planted(path, payload, *, sync=True):
            return atomic_write_bytes(path, dumps(payload).encode("utf-8"), sync=sync)

        monkeypatch.setattr(facade, "atomic_write_json", planted)
        assert not _writes_the_fixture(tmp_path / "store")


# ----------------------------------------------------------------------
# The streamed writer is the stdlib's bytes
# ----------------------------------------------------------------------

_strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["\ud800", "a\udfffb", "é中", "\x7f\x00", '"\\/', " "]),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**130),
    st.integers(min_value=-(2**130), max_value=-(2**64)),
    st.floats(),  # NaN, +-inf, subnormals, -0.0
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e-05, 1e16]),
    _strings,
)
#: Keys json.dumps coerces: a dict holding any of them is written whole.
_other_keys = st.one_of(st.integers(), st.floats(), st.booleans(), st.none())
_long_lists = st.lists(
    st.one_of(_leaves, st.dictionaries(_strings, _leaves, max_size=2)),
    min_size=STREAM_LIST_LEN,
    max_size=STREAM_LIST_LEN + 3,
)
_trees = st.recursive(
    st.one_of(_leaves, _long_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
        st.dictionaries(_other_keys, inner, min_size=1, max_size=3),
        st.dictionaries(st.one_of(_strings, _other_keys), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(tree=_trees)
@example(tree={0: None})
@example(tree={"a": {"b": 1, 2.5: [None], True: {}, None: "x"}})
@example(tree={"nan": [float("nan"), float("-inf")] * STREAM_LIST_LEN, "t": (1, (2, "é"))})
@example(tree=[{"id": 2**70, "s": "\ud800"}] * (STREAM_LIST_LEN + 1))
@example(tree={"": {}, "l": [], "x": [[], {}] * STREAM_LIST_LEN})
def test_streamed_writer_writes_json_dumps_bytes(tmp_path_factory, tree):
    path = tmp_path_factory.mktemp("write") / "tree.json"
    atomic_write_json(path, tree, sync=False)
    assert path.read_bytes() == json.dumps(tree, separators=(",", ":")).encode("utf-8")


def test_a_failure_mid_stream_leaves_the_old_file(tmp_path):
    target = tmp_path / "snapshot.json"
    target.write_bytes(b'{"old":true}')
    tmp = tmp_path / "snapshot.json.tmp"
    on_disk_at_failure = []

    class Tripwire(dict):
        """Encoded whole (a dict subclass); encoding it fails after the
        first batches are already in the temp file."""

        def items(self):
            on_disk_at_failure.append(tmp.stat().st_size)
            raise RuntimeError("mid-stream")

    payload = {"head": ["x" * 1000] * 200, "tail": Tripwire(k=1)}
    with pytest.raises(RuntimeError, match="mid-stream"):
        atomic_write_json(target, payload)
    assert on_disk_at_failure and on_disk_at_failure[0] > 0
    assert target.read_bytes() == b'{"old":true}'
    assert not tmp.exists()


def test_a_circular_tree_is_refused_like_json_dumps(tmp_path):
    tree: dict = {"a": [0] * STREAM_LIST_LEN}
    tree["b"] = {"loop": tree}
    with pytest.raises(ValueError, match="Circular reference detected"):
        json.dumps(tree, separators=(",", ":"))
    with pytest.raises(ValueError, match="Circular reference detected"):
        atomic_write_json(tmp_path / "x.json", tree)
    assert list(tmp_path.iterdir()) == []
