"""In-memory span recording with exact self-time accounting.

A span is one uninterrupted stretch of host time spent inside a named
function: ``(name, start, end, parent)``.  Spans nest strictly, because
the simulator is single-threaded.  Recording keeps the hot path short:
opening a span pushes its start time, closing it appends
``(name, depth, start, end)`` to flat arrays.  :meth:`SpanRecorder.table`
then recovers each span's parent from the depths and computes self
times with integer nanoseconds, so the accounting is exact.

Most of the simulator's entry points are generator functions: calling
one only builds a generator, and the work happens each time the
generator is resumed.  :meth:`SpanRecorder.wrap_genfn` therefore returns
a proxy generator that opens a span around *every* resumption (the
first ``next``, each ``send`` and each ``throw``) and forwards values,
exceptions and the return value exactly as ``yield from`` would.

Self time of a span is its duration minus the durations of its direct
children.  The wrappers' own cost is part of the recorded times: the
part before a span's first clock read and after its last one lands in
the parent's self time.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List


class SpanRecorder:
    """Records spans of registered names.

    Create one per traced run and wrap functions with :meth:`wrap_call`
    and :meth:`wrap_genfn`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: per name id, calls whose result was truthy (see :meth:`wrap_call`)
        self.hits: List[int] = []
        #: the span table, one entry per span, in the order spans close
        self.span_name = array("i")
        self.span_depth = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        #: start times of the open spans
        self._open: List[int] = []

    def __len__(self) -> int:
        return len(self.span_start)

    @property
    def depth(self) -> int:
        """Number of open spans."""
        return len(self._open)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.hits.append(0)
        return nid

    # -- wrappers -----------------------------------------------------------
    def wrap_call(self, name: str, fn: Callable, count_hits: bool = False):
        """Wrap a plain function: one span per call.  With *count_hits*,
        calls returning a truthy value are also counted."""
        nid = self.name_id(name)
        clock, opened = self.clock, self._open
        push, pop = opened.append, opened.pop
        name_a, depth_a = self.span_name.append, self.span_depth.append
        start_a, end_a = self.span_start.append, self.span_end.append
        hits = self.hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                start_a(pop())
                end_a(t)
                name_a(nid)
                depth_a(len(opened))
            if count_hits and result:
                hits[nid] += 1
            return result

        return wrapper

    def timed_generator(self, nid: int, gen):
        """Proxy *gen*, opening one span around each of its resumptions."""
        proxy = _proxy(self, nid, gen)
        # process labels default to the generator's name
        proxy.__name__ = gen.__name__
        proxy.__qualname__ = gen.__qualname__
        return proxy

    def wrap_genfn(self, name: str, fn: Callable):
        """Wrap a generator function: its generators are proxied by
        :meth:`timed_generator`, so each resumption is one span."""
        nid = self.name_id(name)
        timed = self.timed_generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed(nid, fn(*args, **kwargs))

        return wrapper

    # -- results ----------------------------------------------------------
    def table(self) -> Dict[str, object]:
        """The span table as numpy arrays: ``name``, ``depth``, ``start``,
        ``end``, ``parent`` (index of the enclosing span, -1 for none) and
        ``self_ns``.

        Spans are stored as they close, so a span's parent is the first
        span after it with depth one less.  Raises AssertionError if a
        span is still open or a child is not inside its parent."""
        import numpy as np

        if self._open:
            raise AssertionError(f"{len(self._open)} span(s) still open")
        name = np.frombuffer(self.span_name, dtype=np.int32)
        depth = np.frombuffer(self.span_depth, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        order = np.arange(depth.size)
        parent = np.full(depth.size, -1, dtype=np.int64)
        for d in range(1, int(depth.max(initial=0)) + 1):
            child = order[depth == d]
            above = order[depth == d - 1]
            at = np.searchsorted(above, child)
            if at.size and at.max() >= above.size:
                raise AssertionError(f"a depth-{d} span closed after every depth-{d - 1} span")
            parent[child] = above[at]
        nested = parent >= 0
        p = parent[nested]
        if np.any(start[nested] < start[p]) or np.any(end[nested] > end[p]):
            raise AssertionError("a span is not nested inside its parent")
        dur = end - start
        child_ns = np.zeros(depth.size, dtype=np.int64)
        np.add.at(child_ns, p, dur[nested])
        return {"name": name, "depth": depth, "start": start, "end": end,
                "parent": parent, "self_ns": dur - child_ns}

    def totals(self, table=None) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "hits", "self_s"}}`` for every name."""
        import numpy as np

        t = self.table() if table is None else table
        n = len(self.names)
        calls = np.bincount(t["name"], minlength=n)
        self_ns = np.zeros(n, dtype=np.int64)
        np.add.at(self_ns, t["name"], t["self_ns"])
        return {
            name: {"calls": int(calls[i]), "hits": self.hits[i],
                   "self_s": int(self_ns[i]) * 1e-9}
            for i, name in enumerate(self.names)
        }

    @staticmethod
    def top_s(table) -> float:
        """Summed duration of the spans that have no parent; equal to the
        summed self time of all spans."""
        top = table["depth"] == 0
        return int((table["end"][top] - table["start"][top]).sum()) * 1e-9

    def save(self, path, table=None) -> None:
        """Write the span table as a compressed ``.npz``: the name table,
        and per span its name id, parent index, start and end in ns."""
        import numpy as np

        t = self.table() if table is None else table
        np.savez_compressed(path, names=np.array(self.names), name=t["name"],
                            parent=t["parent"], start=t["start"], end=t["end"])


def _proxy(rec: SpanRecorder, nid: int, gen):
    clock, opened = rec.clock, rec._open
    push, pop = opened.append, opened.pop
    name_a, depth_a = rec.span_name.append, rec.span_depth.append
    start_a, end_a = rec.span_start.append, rec.span_end.append
    send, throw = gen.send, gen.throw
    value = None
    exc = None
    while True:
        push(clock())
        try:
            out = send(value) if exc is None else throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            t = clock()
            start_a(pop())
            end_a(t)
            name_a(nid)
            depth_a(len(opened))
        exc = None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen, as yield-from does
            exc = thrown
            value = None
