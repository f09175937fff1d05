"""Long-lived heap out of the collector's full scans.

A full (generation 2) collection walks every tracked object, and most of
a replay's or a serving controller's heap -- the world, the trace, the
policy state, the outcomes already returned -- can no longer become
cyclic garbage.  :func:`long_lived` moves everything alive on entry to the
permanent generation (``gc.freeze()``), so collections inside the block
scan only what the block allocated, and moves it back on exit.
Refcounting still frees acyclic garbage; frozen cyclic garbage is
reclaimed by the first collection after the exit.  No decision reads the
collector, so nothing a replay or a controller computes changes.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["long_lived"]


@contextmanager
def long_lived() -> Iterator[None]:
    """Freeze the heap for the block, if no one else holds the freeze.

    It acts only when it owns the permanent generation: the collector is
    enabled and nothing is frozen on entry.  A nested or concurrent block,
    or a caller that froze the heap itself, leaves the freeze as it was.
    """
    owner = gc.isenabled() and gc.get_freeze_count() == 0
    if owner:
        gc.freeze()
    try:
        yield
    finally:
        if owner:
            gc.unfreeze()
