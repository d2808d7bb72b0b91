"""In-memory span recorder and the self-time arithmetic over its spans.

A *span* is one timed call into a layer: ``(name, start, end, parent,
cell)``, where ``parent`` is the index of the span that was open when
the call began (``-1`` at top level) and ``cell`` the digest of the
plan cell being computed (``None`` outside a cell).  Span names are
``<layer>.<what>``; the layer is the part before the first dot.

Calls that happen once per packet (routing ``decide``, traffic ``dest``,
the delivery sink) would produce millions of spans, so they are kept as
*rollups* instead: per (open span, name) a call count and the summed
call time.  Nested calls of the same rollup name (a scenario pattern's
``dest`` delegating to its inner pattern) count once, at the outermost
call.

Spans live in memory until :meth:`Tracer.to_dict`, which the workload
process writes out when it exits.
"""

from __future__ import annotations

import time

__all__ = ["Tracer", "layer_of", "self_times"]


def layer_of(name: str) -> str:
    """The layer a span or metric name belongs to (text before the dot)."""
    return name.partition(".")[0]


def self_times(spans, rollups) -> dict[str, float]:
    """Per-layer self time: span time minus its child spans and rollups.

    *spans* is a list of ``(name, start, end, parent, cell)``; *rollups*
    a list of ``(parent, name, calls, seconds, cell)``.  The tracer is
    single-threaded and closes spans in stack order, so a span's children
    are disjoint and lie inside it.  A rollup's time is its own layer's
    self time and is taken out of its parent span's.
    """
    inner: dict[int, float] = {}
    out: dict[str, float] = {}
    for name, start, end, parent, _cell in spans:
        if parent >= 0:
            inner[parent] = inner.get(parent, 0.0) + end - start
    for parent, name, _calls, seconds, _cell in rollups:
        if parent >= 0:
            inner[parent] = inner.get(parent, 0.0) + seconds
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + seconds
    for i, (name, start, end, _parent, _cell) in enumerate(spans):
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + end - start - inner.get(i, 0.0)
    return out


class Tracer:
    """Wraps callables so that each call records a span or a rollup."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cell: str | None = None
        self._rollups: dict[tuple[int, str], list] = {}
        self._active: set[str] = set()

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.cell])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def span(self, name: str, fn):
        """*fn* wrapped to record one span per call."""

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def rollup(self, name: str, fn):
        """*fn* wrapped to count calls and sum their time per open span."""
        rollups = self._rollups
        active = self._active
        stack = self.stack
        clock = self.clock

        def wrapper(*args):
            if name in active:
                return fn(*args)
            active.add(name)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                active.discard(name)
                key = (stack[-1] if stack else -1, name)
                slot = rollups.get(key)
                if slot is None:
                    rollups[key] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def to_dict(self) -> dict:
        """Spans, and rollups as ``[parent, name, calls, seconds, cell]``."""
        spans = self.spans
        return {
            "spans": spans,
            "rollups": [
                [parent, name, calls, secs, spans[parent][4] if parent >= 0 else None]
                for (parent, name), (calls, secs) in self._rollups.items()
            ],
        }
