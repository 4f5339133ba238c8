"""The one observer hook path: ``Simulator.obs`` and its fan-out.

Every observer attaches to the same slot.  These tests pin what that
must never change: any subset of observers sees the same run as each
observer alone (and as no observer at all), a detached run calls no
hook, and observers with books to close end at the run's elapsed time
even when the chaos layer keeps the clock moving after it.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json

import numpy as np
import pytest

from repro.apps import cg, helmholtz
from repro.chaos import ChaosEngine
from repro.chaos.plan import plan_by_name
from repro.metrics import Metrics
from repro.profile import Profiler, compute_critical_path
from repro.runtime import ParadeRuntime
from repro.sanitizer import Sanitizer
from repro.sim import Simulator
from repro.sim.observers import HOOKS, Observers, attached
from repro.trace import ALL_CATEGORIES, TraceRecorder

OBSERVER_CLASSES = (TraceRecorder, Profiler, Sanitizer, Metrics)
OBSERVERS = ("trace", "sanitizer", "profiler", "metrics")
SUBSETS = [
    frozenset(c)
    for r in range(1, len(OBSERVERS) + 1)
    for c in itertools.combinations(OBSERVERS, r)
]


def _hooks_of(cls):
    """Names of *cls*'s methods that receive calls from the stack."""
    return sorted(
        n for n, v in inspect.getmembers(cls)
        if n in HOOKS or (n.startswith("on_") and callable(v))
    )


def test_every_observer_hook_is_on_the_path():
    """An ``on_*`` method no site can reach would be silently dead."""
    for cls in OBSERVER_CLASSES:
        for name in _hooks_of(cls):
            assert name in HOOKS, f"{cls.__name__}.{name}"
    defined = {n for cls in OBSERVER_CLASSES for n in _hooks_of(cls)}
    assert set(HOOKS) <= defined, sorted(set(HOOKS) - defined)


def test_single_subscriber_hook_is_the_bound_method():
    sim = Simulator()
    prof = Profiler(sim)
    obs = sim.obs
    assert obs.on_fault == prof.on_fault
    assert obs.on_enter == prof.on_enter
    rec = TraceRecorder(sim)
    # attaching rebuilds: the old hub still reaches only the profiler
    assert sim.obs is not obs and obs.members == (prof,)
    assert sim.obs.instant == rec.instant
    assert sim.obs.on_fault == prof.on_fault
    assert attached(sim) == (prof, rec)
    prof.detach()
    assert attached(sim) == (rec,)
    assert sim.obs.on_send == rec.on_send
    # the kernel-scheduler hooks only reach a recorder that records them
    assert sim.obs.on_resume is None and sim.obs.on_block is None
    rec.detach()
    assert sim.obs is None
    rec = TraceRecorder(sim, categories=ALL_CATEGORIES)
    assert sim.obs.on_block == rec.on_block


def test_fan_out_reaches_every_subscriber_in_attach_order():
    calls = []

    class A:
        def on_step(self, now, depth):
            calls.append(("a", now, depth))

    class B:
        def on_step(self, now, depth):
            calls.append(("b", now, depth))

    class C:
        def on_step(self, now, depth):
            calls.append(("c", now, depth))

    hub = Observers((A(), B()))
    hub.on_step(1.0, 2)
    hub.on_fault(3, True)  # nobody subscribes: a no-op
    assert hub.on_block is None  # per-event hooks: None, checked at the site
    Observers((C(), A(), B())).on_step(4.0, depth=5)
    assert calls == [("a", 1.0, 2), ("b", 1.0, 2),
                     ("c", 4.0, 5), ("a", 4.0, 5), ("b", 4.0, 5)]


# ----------------------------------------------------------------------
# subsets: each observer sees the same run whatever else is attached
# ----------------------------------------------------------------------
def _program():
    return helmholtz.make_program(n=24, m=24, max_iters=2)


def _value_digest(value) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(value.u).tobytes() + float(value.error).hex().encode()
    ).hexdigest()


def _observed_run(subset):
    rt = ParadeRuntime(
        n_nodes=2, pool_bytes=1 << 20,
        sanitize="sanitizer" in subset, profile="profiler" in subset,
        metrics="metrics" in subset,
    )
    rec = TraceRecorder(rt.sim, capacity=1 << 16) if "trace" in subset else None
    res = rt.run(_program())
    out = {"elapsed": res.elapsed, "value": _value_digest(res.value)}
    if rec is not None:
        h = hashlib.sha256()
        for ev in rec.events:
            h.update(json.dumps(ev.as_dict(), sort_keys=True).encode())
        out["trace"] = (rec.n_emitted, h.hexdigest())
    if rt.sanitizer is not None:
        out["sanitizer"] = (
            [str(f) for f in rt.sanitizer.findings],
            rt.sanitizer.accesses_checked, rt.sanitizer.sync_ops,
        )
    if rt.profiler is not None:
        out["profiler"] = (rt.profiler.ledgers(), rt.profiler.intervals,
                           rt.profiler.net_intervals)
    if rt.metrics is not None:
        out["metrics"] = rt.metrics.dump()
    return out


@pytest.fixture(scope="module")
def solo_runs():
    runs = {name: _observed_run({name}) for name in OBSERVERS}
    runs[None] = _observed_run(set())
    return runs


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(sorted(s)))
def test_observer_subset_matches_each_observer_alone(subset, solo_runs):
    got = solo_runs[next(iter(subset))] if len(subset) == 1 else _observed_run(subset)
    detached = solo_runs[None]
    assert got["elapsed"] == detached["elapsed"]
    assert got["value"] == detached["value"]
    for name in subset:
        assert got[name] == solo_runs[name][name], name


# ----------------------------------------------------------------------
# detached: zero hooks, exactly
# ----------------------------------------------------------------------
def _forbid(monkeypatch, cls, names):
    for name in names:
        def boom(*args, _name=f"{cls.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} called on a detached run")

        monkeypatch.setattr(cls, name, boom)


@pytest.mark.parametrize("app", ["cg", "helmholtz"])
@pytest.mark.parametrize("flags", ["off", "accel+hier"])
def test_detached_run_calls_no_hook(monkeypatch, app, flags):
    for cls in OBSERVER_CLASSES:
        _forbid(monkeypatch, cls, _hooks_of(cls)
                + [n for n in ("finalize", "sample") if hasattr(cls, n)])
    _forbid(monkeypatch, ChaosEngine, [
        n for n, v in vars(ChaosEngine).items()
        if inspect.isfunction(v) and n != "__init__"
    ])
    accel = flags == "accel+hier"
    rt = ParadeRuntime(n_nodes=2, pool_bytes=1 << 21,
                       protocol_accel=accel, hierarchical=accel)
    program = cg.make_program("T", niter=1) if app == "cg" else _program()
    assert rt.sim.obs is None and rt.cluster.network.chaos is None
    rt.run(program)
    assert rt.sim.obs is None


# ----------------------------------------------------------------------
# closing at the run's end
# ----------------------------------------------------------------------
def test_chaos_run_closes_observers_at_elapsed():
    """Under chaos the retransmit timers keep the clock running after the
    program ends; the profile and the metrics must end at ``elapsed``."""
    rt = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21, profile=True, metrics=True,
                       fault_plan=plan_by_name("drop"), chaos_seed=0)
    prof, mx = rt.profiler, rt.metrics
    res = rt.run(helmholtz.make_program(n=48, m=48, max_iters=3))
    assert rt.sim.now > res.elapsed, "the drain must move the clock for this test"
    assert prof.finalized_at == mx.finalized_at == res.elapsed
    assert max(iv[1] for iv in prof.intervals + prof.net_intervals) <= res.elapsed
    assert all(t <= res.elapsed for ts, _ in mx.series.values() for t in ts)
    cp = compute_critical_path(prof.intervals + prof.net_intervals,
                               t_end=prof.finalized_at)
    assert cp.elapsed == res.elapsed
    assert all(seg[1] <= res.elapsed for seg in cp.segments)
    assert prof.max_sum_error() < 1e-9
    # a driver's own finalize() after the run keeps the run's end
    prof.finalize()
    mx.finalize()
    assert prof.finalized_at == mx.finalized_at == res.elapsed
