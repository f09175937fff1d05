"""Crash-safe filesystem primitives shared by the storage plane.

Durability on POSIX is a three-step contract: the *data* must reach the
disk (``fsync`` on the file), the *name* must reach the disk (``fsync``
on the containing directory after a create/rename/unlink), and replacing
a file must be atomic (``os.replace``).  Skipping any step leaves a
window where a power loss produces a zero-length or half-written "good"
file -- exactly the failure mode the write-ahead log exists to prevent.
These helpers centralise the dance so every writer in :mod:`repro.store`
(and the controller's JSON snapshots) gets it right.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = ["fsync_file", "fsync_dir", "atomic_write_bytes", "atomic_write_json"]


def fsync_file(fileno: int) -> None:
    """Flush one open file's data and metadata to stable storage."""
    os.fsync(fileno)


def fsync_dir(path: str | Path) -> None:
    """Persist directory entries (created/renamed/deleted names) to disk.

    Best-effort on platforms whose directories cannot be opened (the
    data-fsync already happened; only the *name* durability is weakened).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. directories on some FS
        pass
    finally:
        os.close(fd)


def _write_atomically(path: str | Path, chunks: Iterable[bytes], *, sync: bool) -> Path:
    """Write ``chunks`` to a temp file beside ``path``, fsync it, rename it
    over ``path``, fsync the directory.  If producing or writing a chunk
    raises, the temp file is removed and ``path`` is left as it was."""
    target = Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            if sync:
                fsync_file(fh.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, target)
    if sync:
        fsync_dir(target.parent)
    return target


def atomic_write_bytes(path: str | Path, data: bytes, *, sync: bool = True) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + rename + dir fsync).

    A reader (or a post-crash recovery) sees either the complete old file
    or the complete new file, never a prefix of either.  With
    ``sync=False`` the rename is still atomic but durability is left to
    the OS writeback (for tests and throwaway artifacts).
    """
    return _write_atomically(path, (data,), sync=sync)


#: Lists at least this long are written one element at a time; shorter
#: ones, like every other value, are encoded whole.
STREAM_LIST_LEN = 64
#: Characters of encoded text gathered before each write to the file.
_BATCH_CHARS = 1 << 16

# The C encoder under exactly json.dumps(payload, separators=(",", ":")).
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_pieces(value: Any, open_ids: set[int]) -> Iterator[str]:
    """The text of ``json.dumps(value, separators=(",", ":"))``, in pieces.

    Only non-empty dicts with ``str`` keys and long lists are taken apart;
    every other value is encoded whole by the C encoder, so the pieces join
    to the same text.  A dict with any other key is encoded whole because
    ``json.dumps`` coerces such keys; tuples and subclasses are encoded
    whole too.  ``open_ids`` are the containers being written, checked as
    ``json.dumps``' own circular-reference check would."""
    kind = type(value)
    if kind is dict:
        if not value or not all(type(key) is str for key in value):
            yield _encode(value)
            return
    elif kind is not list or len(value) < STREAM_LIST_LEN:
        yield _encode(value)
        return
    if id(value) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(value))
    if kind is dict:
        separator = "{"
        for key, item in value.items():
            yield separator + _encode(key) + ":"
            yield from _json_pieces(item, open_ids)
            separator = ","
        yield "}"
    else:
        separator = "["
        for item in value:
            yield separator + _encode(item)
            separator = ","
        yield "]"
    open_ids.discard(id(value))


def _json_batches(payload: Any) -> Iterator[bytes]:
    """:func:`_json_pieces` of ``payload``, gathered into ~64 KB writes."""
    batch: list[str] = []
    size = 0
    for piece in _json_pieces(payload, set()):
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH_CHARS:
            yield "".join(batch).encode("utf-8")
            batch.clear()
            size = 0
    yield "".join(batch).encode("utf-8")


def atomic_write_json(path: str | Path, payload: Any, *, sync: bool = True) -> Path:
    """Write ``json.dumps(payload, separators=(",", ":"))`` to ``path``
    atomically (:func:`atomic_write_bytes`' steps), byte for byte.

    The text is streamed to the temp file in ~64 KB batches and never held
    whole: a controller snapshot is the largest thing a serving process
    writes, and it grows with pairs x menu size.
    """
    return _write_atomically(path, _json_batches(payload), sync=sync)
