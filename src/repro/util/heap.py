"""Pausing the cyclic garbage collector around bulk allocation."""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic GC off; then promote what it made.

    A block that makes hundreds of thousands of long-lived objects and
    no garbage (a study's records, a shard's unpickled reply) sets off,
    with the GC on, repeated collections that traverse the whole
    growing heap.  If the GC was on, everything is moved to the oldest
    generation on the way out (``gc.freeze()`` then ``gc.unfreeze()``),
    so the first young collection after the block does not traverse it
    all either -- unless the caller froze objects itself, since the
    unfreeze would release them.  The GC's state is restored however
    the block ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()
