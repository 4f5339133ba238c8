"""Self-tests of the benchmark's span accounting and layer wrappers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import SpanRecorder  # noqa: E402


class FakeClock:
    """A clock that only moves when the toy code does work."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def busy(self, ns):
        self.now += ns


def toy_nest(rec, busy):
    """outer -> inner -> leaf, resumed across three steps.  Busy time per
    function: outer 5+3+2, inner 7+6, leaf 4."""

    def leaf():
        busy(4)
        return 1

    def inner():
        busy(7)
        yield "b"
        busy(6)
        return 10 + wleaf()

    def outer():
        busy(5)
        yield "a"
        busy(3)
        r = yield from winner()
        busy(2)
        return r + 1

    wleaf = rec.wrap_call("leaf", leaf)
    winner = rec.wrap_genfn("inner", inner)
    return rec.wrap_genfn("outer", outer)


def drive(gen):
    """The simulator's resume loop in miniature."""
    yielded = []
    try:
        value = next(gen)
        while True:
            yielded.append(value)
            value = gen.send(None)
    except StopIteration as stop:
        return yielded, stop.value


def test_self_times_exact_with_nested_generators():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    outer = toy_nest(rec, clock.busy)
    yielded, result = drive(outer())
    assert yielded == ["a", "b"]
    assert result == 12
    table = rec.table()
    totals = rec.totals(table)
    # outer: resumed 3 times; inner: 2 resumptions; leaf: 1 call
    assert {n: t["calls"] for n, t in totals.items()} == {"outer": 3, "inner": 2, "leaf": 1}
    assert totals["outer"]["self_s"] == pytest.approx(10e-9)
    assert totals["inner"]["self_s"] == pytest.approx(13e-9)
    assert totals["leaf"]["self_s"] == pytest.approx(4e-9)
    # the three outer resumptions are the only top-level spans
    assert rec.top_s(table) == pytest.approx(27e-9)
    assert int(table["self_ns"].sum()) == 27


def test_parents_follow_the_nesting():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    drive(toy_nest(rec, clock.busy)())
    t = rec.table()
    names = [rec.names[i] for i in t["name"]]
    # spans are stored as they close
    assert names == ["outer", "inner", "outer", "leaf", "inner", "outer"]
    assert list(t["parent"]) == [-1, 2, -1, 4, 5, -1]
    assert list(t["depth"]) == [0, 1, 0, 2, 1, 0]


def test_self_times_with_real_busy_work():
    """Busy-wait toy generators with known host times, resumed across
    several steps: self times come out near the busy times and add up
    exactly to the top-level spans."""

    def busy(ns):
        end = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < end:
            pass

    rec = SpanRecorder()
    ms = 1_000_000
    _, result = drive(toy_nest(rec, lambda ns: busy(ns * ms))())
    assert result == 12
    table = rec.table()
    totals = rec.totals(table)
    for name, want_ms in (("outer", 10), ("inner", 13), ("leaf", 4)):
        got = totals[name]["self_s"] * 1e3
        assert want_ms <= got < want_ms * 1.5 + 2, (name, got)
    assert int(table["self_ns"].sum()) == int(
        (table["end"] - table["start"])[table["depth"] == 0].sum())


def test_proxy_forwards_throw_and_close():
    rec = SpanRecorder()
    closed = []

    def catcher():
        try:
            yield 1
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        try:
            yield 2
        finally:
            closed.append(True)

    gen = rec.wrap_genfn("catcher", catcher)()
    assert gen.__name__ == "catcher"
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == "caught k"
    assert next(gen) == 2
    gen.close()
    assert closed == [True]
    assert rec.depth == 0
    assert rec.totals()["catcher"]["calls"] == 3


def test_exception_out_of_a_wrapped_call_closes_its_span():
    rec = SpanRecorder()

    def boom():
        raise ValueError("x")

    wrapped = rec.wrap_call("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert rec.depth == 0
    assert rec.totals()["boom"]["calls"] == 1


def test_count_hits():
    rec = SpanRecorder()
    check = rec.wrap_call("check", lambda x: x > 0, count_hits=True)
    assert [check(v) for v in (1, -1, 2)] == [True, False, True]
    totals = rec.totals()
    assert (totals["check"]["calls"], totals["check"]["hits"]) == (3, 2)


def test_layer_wrappers_do_not_perturb_a_run():
    """A traced run repeats the untraced one exactly, every span closes,
    and restore() puts the original functions back."""
    import layers
    from repro.sim.core import Simulator
    from workloads import HelmholtzObservedWorkload, run_job

    class Tiny(HelmholtzObservedWorkload):
        N, ITERS = 24, 2

    work = Tiny(seed=3)
    work.setup()
    plain = run_job(work, 0)
    original_step = Simulator.step

    rec = SpanRecorder()
    installed = layers.install(rec)
    try:
        traced = run_job(work, 0)
    finally:
        installed.restore()
    assert Simulator.step is original_step
    assert installed.missing == []
    assert traced.invariants() == plain.invariants()
    table = rec.table()
    by_layer = installed.layer_totals(rec.totals(table))
    assert set(by_layer) == set(layers.LAYERS)
    for layer in ("sim", "cluster", "dsm.handler", "mpi", "runtime", "apps", "trace",
                  "profile", "sanitizer", "metrics", "chaos"):
        assert by_layer[layer]["calls"] > 0, layer
    assert sum(v["self_s"] for v in by_layer.values()) == pytest.approx(rec.top_s(table))
