"""Seeded-racy programs: negative tests for :mod:`repro.sanitizer`.

Each program plants one deliberate, well-understood data race — the kind
of bug the DSM runtime silently tolerates (last writer wins at the home,
stale reads survive until the next consistency point) but that corrupts
results nondeterministically on a real cluster.  The sanitizer must flag
every one of them with both access sites named; ``python -m repro run
racy-ww --sanitize --expect-races`` runs one as a self-check.

These programs are intentionally *non-conforming* OpenMP: they touch
shared data from multiple threads between barriers without ordering.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def make_write_write(n: int = 64):
    """Every thread writes the same leading elements of a shared array in
    the same interval — unordered write/write conflicts on one page."""

    def program(ctx):
        a = ctx.shared_array("racy_ww", (n,))

        def body(tc, arr):
            av = tc.array(arr)
            # all threads write [0, 8) with no synchronisation in between
            yield from av.set(np.full(8, float(tc.tid)), start=0)
            yield from tc.barrier()
            return tc.tid

        results = yield from ctx.parallel(body, a)
        return results

    return program


def make_read_write(n: int = 64):
    """Thread 0 writes a range other threads read in the same interval —
    unordered read/write conflicts (a stale-read bug on a real SDSM)."""

    def program(ctx):
        a = ctx.shared_array("racy_rw", (n,))

        def body(tc, arr):
            av = tc.array(arr)
            total = 0.0
            if tc.tid == 0:
                yield from av.set(np.ones(16), start=0)
            else:
                vals = yield from av.get(0, 16)
                total = float(vals.sum())
            yield from tc.barrier()
            return total

        results = yield from ctx.parallel(body, a)
        return results

    return program


def make_missing_barrier(n: int = 64):
    """A block-partitioned write phase followed by a full-array read phase
    with the separating barrier *omitted* — the classic dropped
    ``#pragma omp barrier`` bug."""

    def program(ctx):
        a = ctx.shared_array("racy_nb", (n,))

        def body(tc, arr):
            av = tc.array(arr)
            lo, hi = tc.for_range(0, n)
            yield from av.set(np.full(hi - lo, float(tc.tid + 1)), start=lo)
            # BUG: no tc.barrier() here
            vals = yield from av.get()
            yield from tc.barrier()
            return float(vals.sum())

        results = yield from ctx.parallel(body, a)
        return results

    return program


def racy_programs() -> Dict[str, dict]:
    """Registry of seeded-racy workloads (same shape as
    :func:`repro.bench.figures.registered_programs`)."""
    from repro.fleet.spec import make_entry

    def entry(fn: str, note: str) -> dict:
        return make_entry(("repro.apps.racy", fn), {}, pool_bytes=1 << 20,
                          note=note, figure="-")

    return {
        "racy-ww": entry("make_write_write", "seeded write/write race on one page"),
        "racy-rw": entry("make_read_write", "seeded read/write race (stale read)"),
        "racy-nobar": entry("make_missing_barrier",
                            "missing barrier between write and read phases"),
    }
