"""Engine-invisibility matrix: scheduler changes may not move a run.

Each row of ``tests/goldens/engine_matrix.json`` pins the virtual time,
message and byte totals and an exact value digest of one small
configuration.  The rows span apps, node counts, exec configs, ParADE
vs SDSM, the accelerator and tree barrier on and off, and the lock-heavy
``critical``/``single`` directive loops, including configurations that
are sensitive to the order in which same-time wakeups run.  Event counts
are deliberately *not* pinned: the engine may process fewer events, but
every observable of the simulated cluster must stay bit-identical.

Regenerate (only when an *intentional* protocol change lands)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_engine_matrix.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from repro.apps import cg, helmholtz, md
from repro.mpi.ops import SUM
from repro.runtime import (
    ONE_THREAD_ONE_CPU,
    ONE_THREAD_TWO_CPU,
    TWO_THREAD_TWO_CPU,
    ParadeRuntime,
)

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "engine_matrix.json"

EXEC = {c.name: c for c in (ONE_THREAD_ONE_CPU, ONE_THREAD_TWO_CPU, TWO_THREAD_TWO_CPU)}


def _critical(iters: int = 4):
    def program(ctx):
        x = ctx.shared_scalar("em_x")

        def body(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        yield from ctx.parallel(body, x)
        total = yield from ctx.scalar(x).get()
        return float(total)

    return program


def _single(iters: int = 4):
    def program(ctx):
        v = ctx.shared_scalar("em_v")
        executed = []

        def body(tc, v):
            for i in range(iters):
                def init(i=i):
                    executed.append(i)
                    return float(i)
                    yield  # a generator body, as the directive expects

                yield from tc.single(body_gen_fn=init, shared_scalar=v)

        yield from ctx.parallel(body, v)
        return executed

    return program


PROGRAMS = {
    "cg-T": lambda: cg.make_program("T", niter=1),
    "helmholtz-48": lambda: helmholtz.make_program(n=48, m=48, max_iters=3),
    "md-32": lambda: md.make_program(n_particles=32, steps=2),
    "critical": _critical,
    "single": _single,
}

#: (app, nodes, exec config, mode, accel, hier)
ROWS = [
    ("cg-T", 2, "1Thread-1CPU", "parade", True, False),
    ("cg-T", 2, "2Thread-2CPU", "parade", True, False),
    ("cg-T", 4, "1Thread-2CPU", "sdsm", False, False),
    ("helmholtz-48", 3, "2Thread-2CPU", "sdsm", True, True),
    ("helmholtz-48", 3, "2Thread-2CPU", "parade", True, True),
    ("helmholtz-48", 4, "2Thread-2CPU", "sdsm", True, True),
    ("helmholtz-48", 4, "2Thread-2CPU", "parade", True, True),
    ("helmholtz-48", 2, "1Thread-1CPU", "parade", False, False),
    ("md-32", 3, "2Thread-2CPU", "parade", False, False),
    ("md-32", 8, "2Thread-2CPU", "sdsm", False, False),
    ("critical", 4, "2Thread-2CPU", "parade", False, False),
    ("critical", 4, "2Thread-2CPU", "sdsm", False, False),
    ("critical", 3, "2Thread-2CPU", "sdsm", True, True),
    ("single", 4, "2Thread-2CPU", "parade", False, False),
    ("single", 3, "1Thread-2CPU", "sdsm", False, False),
]


def _row_id(row) -> str:
    app, nodes, ec, mode, accel, hier = row
    flags = "+".join(f for f, on in (("accel", accel), ("hier", hier)) if on) or "off"
    return f"{app}/{nodes}n/{ec}/{mode}/{flags}"


def _value_digest(value) -> str:
    """SHA-256 over a program result, exact to the last bit of every
    float and array element."""
    h = hashlib.sha256()

    def feed(v):
        if dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                h.update(f.name.encode())
                feed(getattr(v, f.name))
        elif isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (float, np.floating)):
            h.update(float(v).hex().encode())
        elif isinstance(v, (list, tuple)):
            for x in v:
                feed(x)
        else:
            h.update(repr(v).encode())
        h.update(b";")

    feed(value)
    return h.hexdigest()


def _observe(row) -> dict:
    app, nodes, ec, mode, accel, hier = row
    rt = ParadeRuntime(
        n_nodes=nodes, exec_config=EXEC[ec], mode=mode, protocol_accel=accel,
        hierarchical=hier, pool_bytes=1 << 21,
    )
    res = rt.run(PROGRAMS[app](), time_limit=2.0)
    return {
        "elapsed": res.elapsed,
        "total_messages": int(res.cluster_stats["total_messages"]),
        "total_bytes": int(res.cluster_stats["total_bytes"]),
        "value_digest": _value_digest(res.value),
    }


def _golden() -> dict:
    if os.environ.get("REPRO_REGEN_GOLDENS") or not GOLDEN.exists():
        snap = {_row_id(row): _observe(row) for row in ROWS}
        GOLDEN.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_engine_matrix_row_matches_golden(row):
    assert _observe(row) == _golden()[_row_id(row)]


def test_golden_covers_exactly_the_matrix():
    assert sorted(_golden()) == sorted(_row_id(row) for row in ROWS)


def _schedule(row, monkeypatch) -> list:
    """Every event the run processes except resource grants, in order:
    virtual time, kind, name and the owners of its callbacks."""
    from repro.sim.core import Simulator
    from repro.sim.resources import Request

    seen = []
    step = Simulator.step

    def logging_step(sim):
        queues = [q[0] for q in (sim._heap, sim._urgent, sim._immediate) if q]
        if queues:
            t, _, _, ev = min(queues)
            if not isinstance(ev, Request):
                owners = tuple(
                    getattr(getattr(cb, "__self__", None), "label", None)
                    or getattr(cb, "__qualname__", "")
                    for cb in ev.callbacks
                )
                seen.append((t, type(ev).__name__, ev.name, owners))
        step(sim)

    monkeypatch.setattr(Simulator, "step", logging_step)
    _observe(row)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize(
    "row",
    [("md-32", 8, "2Thread-2CPU", "sdsm", False, False),
     ("critical", 3, "2Thread-2CPU", "sdsm", True, True)],
    ids=_row_id,
)
def test_eventless_grants_drop_only_the_grant_events(row, monkeypatch):
    """With every grant forced through an event (the engine before
    eventless grants) the run processes the same events in the same
    order, grants aside: the eventless path removes wakeups and nothing
    else."""
    from repro.sim.core import Simulator

    eventless = _schedule(row, monkeypatch)
    monkeypatch.setattr(Simulator, "wakeup_is_next", lambda sim: False)
    evented = _schedule(row, monkeypatch)
    assert eventless == evented
