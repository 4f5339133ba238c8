"""Host-speed probe: a fixed pure-Python workload timed between jobs.

On a shared machine the speed of the host drifts by tens of percent over
minutes, which moves every job time of a run together.  The probe is a
miniature discrete-event loop — generators resumed from a heap, small
dict updates — that imports nothing from the simulator, so no change to
the code under test can change its time.  Dividing a job's time by the
probe times around it, and multiplying by :data:`REFERENCE_S`, expresses
the job in seconds on a reference host on which one probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import heapq
import time

#: probe seconds on the reference host (about this on a 2-CPU x86-64
#: container running CPython 3.11)
REFERENCE_S = 0.1

#: generators, resumptions per generator and loop repetitions per probe
_PROCS, _STEPS, _REPS = 400, 40, 4


def _event_loop() -> int:
    heap = []
    seq = 0

    def proc(k):
        seen = {}
        acc = 0
        for i in range(_STEPS):
            yield i * 1e-6 + k * 1e-7
            seen[i & 7] = seen.get(i & 7, 0) + i
            acc += len(seen)
        return acc

    for k in range(_PROCS):
        g = proc(k)
        heapq.heappush(heap, (next(g), seq, g))
        seq += 1
    total = 0
    while heap:
        t, _, g = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (t + g.send(t), seq, g))
            seq += 1
        except StopIteration as stop:
            total += stop.value
    return total


def probe() -> float:
    """Host seconds for one probe."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _event_loop()
    return time.perf_counter() - t0


def scale(seconds: float, probe_s: float) -> float:
    """*seconds* measured while one probe took *probe_s*, expressed on
    the reference host."""
    return seconds * REFERENCE_S / probe_s
