"""Pause Python's cyclic garbage collector around one simulation cell.

Building a cell allocates many container objects (hundreds of thousands
of routers, ports and VC queues at the paper's h=6 scale) and the drain keeps allocating
packets and records.  Every 700 net allocations the interpreter runs a
young-generation collection, and the survivors periodically push it into
full collections that traverse the whole heap.  None of that finds
anything: neither backend's construction or hot path leaves cyclic
garbage (``tests/test_engine_gc.py`` pins ``gc.collect() == 0`` after
construction and after a run).  Reference counting frees packets as they
are delivered, so pausing the collector over a cell defers no garbage.
The cell's own object graph is cyclic (routers point back at their
simulation); it becomes garbage only when the caller drops the cell,
after the pause, and the collector then reclaims it as before.

:func:`gc_paused` is the one place the pause lives.  It does not change
what a cell computes, only how much collector work runs around it.  The
collector state is process-global: the pause is exact for cells run one
after another (or nested) in a thread, which is how the runner and the
service execute them (worker processes, one cell at a time).
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Callable

__all__ = ["gc_paused"]


def gc_paused(fn: Callable) -> Callable:
    """Run *fn* with the cyclic collector disabled.

    The collector's previous state (``gc.isenabled()``) is restored when
    *fn* returns or raises, so a caller that disabled it keeps it off and
    nested paused calls compose.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
