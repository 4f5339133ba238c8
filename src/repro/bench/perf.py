"""Wall-clock performance harness: the repo's perf trajectory recorder.

Unlike the figure benchmarks (which report *virtual* seconds — the paper's
metric), this harness measures how fast the *simulator itself* runs on the
host: wall-clock seconds, simulator events per second, and page faults per
second over a fixed workload basket (helmholtz, cg, ep, md).  Results are
written to ``BENCH_parade.json`` at the repo root so each PR has a measured
before/after trajectory.

Usage::

    python -m repro.bench.perf --baseline   # record the pre-change baseline
    ... optimise ...
    python -m repro.bench.perf              # record 'current' + speedup

    python -m repro.bench.perf --smoke      # tiny basket (CI regression run)

    python -m repro.bench.perf --accel      # basket with the protocol
                                            # accelerator on -> 'accel'
                                            # section + virtual-time deltas
    python -m repro.bench.perf --gate       # bench gate: accel basket must
                                            # stay within 5% aggregate
                                            # virtual time of the checked-in
                                            # 'accel' baseline (exit 1 if not)

    python -m repro.bench.perf --scale      # scale-out sweep: run the scale
                                            # basket at 4/8/16/32 nodes, flat
                                            # vs hierarchical sync, recording
                                            # virtual time, message counts and
                                            # barrier/lock phase fractions per
                                            # point into the 'scale' section
                                            # (values must be bit-identical
                                            # between the two topologies)

The simulator is deterministic, so ``events``, ``virtual_s``, ``msgs_sent``
and ``bytes_sent`` are exact run invariants (the harness asserts this across
repeats); only ``wall_s`` carries host noise, which ``--repeat`` (best-of)
suppresses.

Every mode fans its independent runs across ``--jobs`` fleet worker
processes (``PARADE_JOBS`` env, default cpu count; see
:mod:`repro.fleet` and docs/FLEET.md) — worker runs are bit-identical
to in-process runs, so results never depend on the job count.  The
gate modes additionally memoise runs in the content-addressed run
cache under ``.parade-cache/`` (disable with ``--no-cache`` /
``PARADE_CACHE=0``): a re-run over an unchanged source tree replays
from cache with zero re-simulations, and the hit/miss counters are
printed with the gate output.

See ``docs/PERFORMANCE.md`` for how to read the output file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

#: output schema version.  2 added per-section run metadata (``meta``:
#: python/platform/machine/nodes/flags) so the metrics watchdog
#: (``python -m repro.metrics regress``) can refuse apples-to-oranges
#: comparisons; schema-1 files load fine, their sections just carry no
#: ``meta`` and the watchdog downgrades the environment check to a warning.
SCHEMA = 2

#: default output files (written into the current working directory,
#: normally the repo root)
DEFAULT_OUT = "BENCH_parade.json"
SMOKE_OUT = "BENCH_smoke.json"


def run_meta(n_nodes, accel: bool = False, smoke: bool = False) -> Dict[str, object]:
    """Environment fingerprint stored next to each recorded section.

    The keys mirror ``repro.metrics.regress.META_KEYS``: two sections
    whose fingerprints differ on any of them were not measured under
    comparable conditions, and the watchdog refuses to band their wall
    times against each other.  *n_nodes* is an int for basket sections
    and the node-count list for the scale sweep.
    """
    import platform as _platform

    return {
        "python": _platform.python_version(),
        "platform": sys.platform,
        "machine": _platform.machine(),
        "nodes": n_nodes,
        "accel": accel,
        "smoke": smoke,
    }


def _full_basket() -> Dict[str, dict]:
    """The fixed measurement basket.

    Sizes are chosen so the simulation engine (not host numpy throughput
    of the application kernels) dominates, and a full run stays under a
    few seconds per workload.  Entries carry both the in-process
    ``factory`` callable and the serializable ``factory_ref`` /
    ``factory_kwargs`` pair the fleet executor ships to worker processes
    (see :func:`repro.fleet.spec.make_entry`).
    """
    from repro.fleet.spec import make_entry

    return {
        "helmholtz": make_entry(
            ("repro.apps.helmholtz", "make_program"),
            {"n": 160, "m": 160, "max_iters": 10},
            pool_bytes=1 << 23,
            note="Helmholtz/Jacobi 160x160, 10 iterations",
        ),
        "cg": make_entry(
            ("repro.apps.cg", "make_program"),
            {"klass": "S", "niter": 1},
            pool_bytes=1 << 23,
            note="NAS CG class S, 1 outer iteration",
        ),
        "ep": make_entry(
            ("repro.apps.ep", "make_program"),
            {"klass": "T"},
            pool_bytes=1 << 20,
            note="NAS EP class T",
        ),
        "md": make_entry(
            ("repro.apps.md", "make_program"),
            {"n_particles": 128, "steps": 6},
            pool_bytes=1 << 22,
            note="MD 128 particles, 6 steps",
        ),
    }


def _smoke_basket() -> Dict[str, dict]:
    """Tiny basket exercising every workload; for CI regression runs."""
    from repro.fleet.spec import make_entry

    return {
        "helmholtz": make_entry(
            ("repro.apps.helmholtz", "make_program"),
            {"n": 24, "m": 24, "max_iters": 2},
            pool_bytes=1 << 20,
            note="smoke: Helmholtz 24x24, 2 iterations",
        ),
        "cg": make_entry(
            ("repro.apps.cg", "make_program"),
            {"klass": "T", "niter": 1},
            pool_bytes=1 << 21,
            note="smoke: NAS CG class T, 1 iteration",
        ),
        "ep": make_entry(
            ("repro.apps.ep", "make_program"),
            {"klass": "T"},
            pool_bytes=1 << 20,
            note="smoke: NAS EP class T",
        ),
        "md": make_entry(
            ("repro.apps.md", "make_program"),
            {"n_particles": 24, "steps": 1},
            pool_bytes=1 << 20,
            note="smoke: MD 24 particles, 1 step",
        ),
    }


def basket(smoke: bool = False) -> Dict[str, dict]:
    return _smoke_basket() if smoke else _full_basket()


#: node counts of the scale-out sweep (``--scale``); the paper's testbed
#: stops at 8 — 16 and 32 are the ROADMAP's production-scale extrapolation
SCALE_NODES = (4, 8, 16, 32)

#: the 16-node point doubles as the CI gate (``make scale-smoke``)
SCALE_GATE_NODES = 16


def _scale_basket(smoke: bool = False) -> Dict[str, dict]:
    """Workloads of the scale-out sweep: one barrier-dominated stencil and
    one lock/reduction-heavy solver, sized so the 32-node point still runs
    in seconds.  ep/md are omitted — their sync behaviour adds nothing the
    two cover."""
    from repro.fleet.spec import make_entry

    if smoke:
        return {
            "helmholtz": make_entry(
                ("repro.apps.helmholtz", "make_program"),
                {"n": 48, "m": 48, "max_iters": 3},
                pool_bytes=1 << 21,
                note="scale smoke: Helmholtz 48x48, 3 iterations",
            ),
            "cg": make_entry(
                ("repro.apps.cg", "make_program"),
                {"klass": "T", "niter": 1},
                pool_bytes=1 << 21,
                note="scale smoke: NAS CG class T, 1 iteration",
            ),
        }
    return {
        "helmholtz": make_entry(
            ("repro.apps.helmholtz", "make_program"),
            {"n": 96, "m": 96, "max_iters": 6},
            pool_bytes=1 << 23,
            note="scale: Helmholtz 96x96, 6 iterations",
        ),
        "cg": make_entry(
            ("repro.apps.cg", "make_program"),
            {"klass": "S", "niter": 1},
            pool_bytes=1 << 23,
            note="scale: NAS CG class S, 1 iteration",
        ),
    }


def _scale_value_digest(value) -> str:
    """Short bit-exact digest of a program result (same canonicalisation
    as the chaos CLI's recovery check, hashed down for the report)."""
    import hashlib

    canon = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _scale_spec(name: str, entry: dict, n_nodes: int, hier: bool):
    """Fleet spec for one (workload, node count, topology) scale point —
    profiler attached to the timed run, as the sweep always measured."""
    from repro.fleet.spec import RunSpec

    return RunSpec.from_entry(
        name, entry, n_nodes=n_nodes, hier=hier, profile=True, observe_timed=True
    )


def _scale_point_record(rec: Dict[str, object]) -> Dict[str, object]:
    """Map one fleet record onto the scale-point shape the report and the
    scale gate consume (same fields :func:`measure_scale_point` always
    reported; the hierarchical-sync counters come out of the summed
    ``dsm_stats`` and the master node's stats)."""
    thread_s = float(rec["thread_s"])
    barrier_s = float(rec["barrier_s"])
    lock_s = float(rec["lock_s"])
    epochs = int(rec["epochs"])
    master = rec["master_stats"]
    dsm = rec["dsm_stats"]
    return {
        "wall_s": rec["wall_s"],
        "virtual_s": rec["virtual_s"],
        "msgs_sent": rec["msgs_sent"],
        "bytes_sent": rec["bytes_sent"],
        "barrier_s": barrier_s,
        "lock_s": lock_s,
        "barrier_frac": barrier_s / thread_s if thread_s else 0.0,
        "lock_frac": lock_s / thread_s if thread_s else 0.0,
        "epochs": epochs,
        "master_arrivals_rx": master["barrier_arrivals_rx"],
        "master_arrivals_per_epoch": (
            master["barrier_arrivals_rx"] / epochs if epochs else 0.0
        ),
        "barrier_relays": dsm["barrier_relays"],
        "notices_merged": dsm["notices_merged"],
        "lock_grants": dsm["lock_grants"],
        "lock_remote_grants": dsm["lock_remote_grants"],
        "value_sha": str(rec["value_digest"])[:16],
    }


def measure_scale_point(
    spec: dict, n_nodes: int, hier: bool
) -> Dict[str, object]:
    """One (workload, node count, topology) run with the profiler attached.

    Reports virtual time, message counts, the barrier / lock-wait phase
    shares of total thread time, and the hierarchical-sync counters —
    including the barrier arrival frames the master received per epoch,
    the number the tree topology is there to cap at the fan-in.  Runs
    through the shared fleet driver (:func:`repro.fleet.spec.execute`),
    so the same measurement is cacheable and worker-dispatchable.
    """
    from repro.fleet.spec import execute

    rec = execute(_scale_spec(spec.get("note", "workload"), spec, n_nodes, hier))
    return _scale_point_record(rec)


def _scale_aggregate(per_workload: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Sum one scale point's per-workload records into the point record."""
    agg: Dict[str, object] = {"per_workload": per_workload}
    for key in (
        "virtual_s", "barrier_s", "lock_s", "msgs_sent", "bytes_sent",
        "epochs", "master_arrivals_rx", "barrier_relays", "notices_merged",
        "lock_grants", "lock_remote_grants",
    ):
        agg[key] = sum(r[key] for r in per_workload.values())
    agg["master_arrivals_per_epoch"] = (
        agg["master_arrivals_rx"] / agg["epochs"] if agg["epochs"] else 0.0
    )
    return agg


def run_scale(
    smoke: bool = False,
    nodes: Optional[List[int]] = None,
    verbose: bool = True,
    jobs: Optional[int] = None,
    cache=None,
) -> Dict[str, object]:
    """The ``--scale`` sweep: flat vs hierarchical sync at each node count.

    Asserts that the two topologies compute bit-identical values at every
    point (hierarchical sync moves messages and timing, never data), then
    records both sides so the curves in docs/PERFORMANCE.md "Scaling" are
    reproducible from the checked-in report.

    All (workload x node count x topology) points are independent runs,
    so they fan out across ``jobs`` fleet workers and memoise in *cache*
    — the records come back in sweep order and every virtual-time number
    is bit-identical to a sequential run.
    """
    from repro.dsm.config import PARADE_HIER
    from repro.fleet import run_many

    node_counts = list(nodes or SCALE_NODES)
    bk = _scale_basket(smoke)
    grid = [
        (n, name, hier)
        for n in node_counts
        for name in bk
        for hier in (False, True)
    ]
    specs = [_scale_spec(name, bk[name], n, hier) for n, name, hier in grid]
    fleet = run_many(specs, jobs=jobs, cache=cache)
    if verbose and (fleet.jobs > 1 or cache is not None):
        print(f"  {fleet.summary()}")
    for rec in fleet.failures():
        raise AssertionError(
            f"scale sweep: {rec['workload']} failed: {rec.get('error')}"
        )
    by_point = {
        key: _scale_point_record(rec) for key, rec in zip(grid, fleet.records)
    }
    points: Dict[str, Dict[str, object]] = {}
    for n in node_counts:
        per: Dict[str, Dict[str, Dict[str, object]]] = {"flat": {}, "hier": {}}
        for name in bk:
            flat = by_point[(n, name, False)]
            hier = by_point[(n, name, True)]
            if flat["value_sha"] != hier["value_sha"]:
                raise AssertionError(
                    f"{name}@{n} nodes: hierarchical sync changed the "
                    "computed value — it must only move messages and timing"
                )
            per["flat"][name] = flat
            per["hier"][name] = hier
        point = {
            "flat": _scale_aggregate(per["flat"]),
            "hier": _scale_aggregate(per["hier"]),
        }
        points[str(n)] = point
        if verbose:
            f, h = point["flat"], point["hier"]
            print(
                f"  n={n:<3} flat: vt={f['virtual_s'] * 1e3:8.3f} ms "
                f"barrier={f['barrier_s'] * 1e3:9.3f} ms "
                f"msgs={f['msgs_sent']:>6} "
                f"arr/epoch={f['master_arrivals_per_epoch']:5.1f}"
            )
            print(
                f"  {'':<5} hier: vt={h['virtual_s'] * 1e3:8.3f} ms "
                f"barrier={h['barrier_s'] * 1e3:9.3f} ms "
                f"msgs={h['msgs_sent']:>6} "
                f"arr/epoch={h['master_arrivals_per_epoch']:5.1f} "
                f"relays={h['barrier_relays']:>4} "
                f"merged={h['notices_merged']:>5}"
            )
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        # schema-2 environment fingerprint: without it the metrics
        # watchdog can't guard this section (satellite of ISSUE 10 —
        # scale-smoke used to write schema-1 reports)
        "meta": run_meta(node_counts, smoke=smoke),
        "smoke": smoke,
        "fanin": PARADE_HIER.barrier_fanin,
        "nodes": node_counts,
        "workloads": {k: v["note"] for k, v in bk.items()},
        "points": points,
    }


def phase_breakdown(spec: dict, n_nodes: int = 4, accel: bool = False) -> Dict[str, float]:
    """Virtual-time phase-group fractions for one workload.

    Runs the workload once more with the :mod:`repro.profile` profiler
    attached (kept out of the timed loop so the wall numbers measure the
    unobserved simulator) and returns ``{group: fraction}`` over all
    thread time — compute / cpu / stall / sync / comm / idle.  The
    simulator is deterministic, so this characterises the timed runs too.
    """
    from repro.profile import Profiler
    from repro.runtime import ParadeRuntime

    rt = ParadeRuntime(
        n_nodes=n_nodes, pool_bytes=spec["pool_bytes"], protocol_accel=accel
    )
    prof = Profiler(rt.sim, record_intervals=False)
    rt.run(spec["factory"]())  # closes the profiler at the run's end
    return prof.group_fractions(ndigits=4)


def measure_workload(
    spec: dict,
    n_nodes: int = 4,
    repeat: int = 2,
    phases: bool = True,
    accel: bool = False,
) -> Dict[str, object]:
    """Run one workload *repeat* times; report best-of wall clock.

    Returns wall_s / virtual_s / events / events_per_s / faults /
    faults_per_s / msgs_sent / bytes_sent, plus (unless ``phases=False``)
    a ``phases`` dict of virtual-time group fractions from a separate,
    untimed profiled run.  ``msgs_sent``/``bytes_sent`` are the network
    totals over the whole run (every frame funnels through
    :meth:`~repro.cluster.network.Network.send`, so the protocol
    accelerator's message-count savings show up here directly).  Virtual
    results must be identical across repeats (the simulator is
    deterministic) — a mismatch raises.  *accel* turns the protocol
    accelerator on (``protocol_accel=True``).
    """
    from repro.runtime import ParadeRuntime

    best: Optional[Dict[str, object]] = None
    for _ in range(max(1, repeat)):
        rt = ParadeRuntime(
            n_nodes=n_nodes, pool_bytes=spec["pool_bytes"], protocol_accel=accel
        )
        t0 = time.perf_counter()
        res = rt.run(spec["factory"]())
        wall = time.perf_counter() - t0
        events = rt.sim.events_processed
        faults = res.dsm_stats.get("read_faults", 0) + res.dsm_stats.get(
            "write_faults", 0
        )
        net = rt.cluster.network
        rec = {
            "wall_s": wall,
            "virtual_s": res.elapsed,
            "events": events,
            "events_per_s": events / wall if wall > 0 else 0.0,
            "faults": faults,
            "faults_per_s": faults / wall if wall > 0 else 0.0,
            "msgs_sent": net.total_messages,
            "bytes_sent": net.total_bytes,
        }
        if best is not None and (
            rec["events"] != best["events"]
            or rec["virtual_s"] != best["virtual_s"]
            or rec["msgs_sent"] != best["msgs_sent"]
            or rec["bytes_sent"] != best["bytes_sent"]
        ):
            raise AssertionError(
                f"non-deterministic run: {rec['events']} events / "
                f"{rec['virtual_s']} s / {rec['msgs_sent']} msgs vs "
                f"{best['events']} / {best['virtual_s']} / {best['msgs_sent']}"
            )
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    assert best is not None
    if phases:
        best["phases"] = phase_breakdown(spec, n_nodes=n_nodes, accel=accel)
    return best


def _basket_record(rec: Dict[str, object]) -> Dict[str, object]:
    """Map one fleet record onto the basket-record shape the report, the
    speedup math and the bench gate consume."""
    wall = float(rec["wall_s"])
    out = {
        "wall_s": wall,
        "virtual_s": rec["virtual_s"],
        "events": rec["events"],
        "events_per_s": rec["events"] / wall if wall > 0 else 0.0,
        "faults": rec["faults"],
        "faults_per_s": rec["faults"] / wall if wall > 0 else 0.0,
        "msgs_sent": rec["msgs_sent"],
        "bytes_sent": rec["bytes_sent"],
    }
    if "phases" in rec:
        out["phases"] = rec["phases"]
    return out


def run_basket(
    smoke: bool = False,
    n_nodes: int = 4,
    repeat: int = 2,
    workloads: Optional[List[str]] = None,
    verbose: bool = True,
    accel: bool = False,
    jobs: Optional[int] = None,
    cache=None,
) -> Dict[str, Dict[str, object]]:
    """Measure every workload of the basket; returns {name: metrics}.

    The basket fans out across ``jobs`` fleet worker processes (default:
    in-process when 1).  Worker runs are bit-identical to in-process
    runs, so every virtual-time number is independent of ``jobs``; only
    ``wall_s`` (and the rates derived from it) carries host noise.
    """
    from repro.fleet import run_many
    from repro.fleet.spec import RunSpec

    bk = basket(smoke)
    names = workloads or list(bk)
    unknown = [n for n in names if n not in bk]
    if unknown:
        raise KeyError(f"unknown workload(s) {unknown}; choose from {sorted(bk)}")
    specs = [
        RunSpec.from_entry(
            name, bk[name], n_nodes=n_nodes, repeat=repeat, accel=accel, profile=True
        )
        for name in names
    ]
    fleet = run_many(specs, jobs=jobs, cache=cache)
    if verbose and (fleet.jobs > 1 or cache is not None):
        print(f"  {fleet.summary()}")
    results: Dict[str, Dict[str, object]] = {}
    for name, frec in zip(names, fleet.records):
        if not frec.get("ok"):
            raise AssertionError(
                f"perf basket: {name} failed: {frec.get('error')}\n"
                f"{frec.get('traceback', '')}"
            )
        rec = _basket_record(frec)
        results[name] = rec
        if verbose:
            ph = rec.get("phases") or {}
            ph_str = " ".join(
                f"{g}={ph[g]:.0%}"
                for g in ("compute", "stall", "sync", "comm")
                if g in ph
            )
            print(
                f"  {name:<10} wall={rec['wall_s']:7.3f}s "
                f"events={rec['events']:>8} "
                f"ev/s={rec['events_per_s']:>11,.0f} "
                f"msgs={rec['msgs_sent']:>6} "
                f"faults/s={rec['faults_per_s']:>9,.0f}  {ph_str}"
            )
    return results


def aggregate_virtual_s(results: Dict[str, Dict[str, object]]) -> float:
    """Basket virtual time: sum of per-workload virtual seconds."""
    return sum(float(r["virtual_s"]) for r in results.values())


def accel_deltas(
    baseline: Dict[str, Dict[str, object]], accel: Dict[str, Dict[str, object]]
) -> Dict[str, object]:
    """Protocol-accelerator effect: virtual-time / message / byte reduction
    of the accel basket vs the flags-off baseline, per workload and for the
    whole basket.  Fractions are reductions (0.19 = 19% less)."""
    per: Dict[str, Dict[str, float]] = {}
    for name, acc in accel.items():
        base = baseline.get(name)
        if not base:
            continue
        ent: Dict[str, float] = {}
        if float(base["virtual_s"]) > 0:
            ent["virtual_time_reduction"] = 1.0 - float(acc["virtual_s"]) / float(
                base["virtual_s"]
            )
        for key, label in (("msgs_sent", "msgs_delta"), ("bytes_sent", "bytes_delta")):
            if key in base and key in acc:
                ent[label] = int(acc[key]) - int(base[key])
        per[name] = ent
    out: Dict[str, object] = {"per_workload": per}
    base_vt = aggregate_virtual_s({k: v for k, v in baseline.items() if k in accel})
    if base_vt > 0:
        out["aggregate_virtual_time_reduction"] = (
            1.0 - aggregate_virtual_s(accel) / base_vt
        )
    return out


def aggregate_events_per_s(results: Dict[str, Dict[str, float]]) -> float:
    """Basket throughput: total simulator events over total wall seconds."""
    wall = sum(r["wall_s"] for r in results.values())
    events = sum(r["events"] for r in results.values())
    return events / wall if wall > 0 else 0.0


def compute_speedup(
    baseline: Dict[str, Dict[str, float]], current: Dict[str, Dict[str, float]]
) -> Dict[str, object]:
    """Wall-time speedup of *current* over *baseline*: baseline over
    current wall seconds per workload, and total over total for the
    workloads both ran.  Work-invariant: an engine change that simulates
    the same run in fewer events reads as the wall-time win it is, where
    an events/s ratio would read it as a slowdown.  ``events`` stays in
    each record as a work counter."""
    per: Dict[str, float] = {}
    for name, cur in current.items():
        base = baseline.get(name)
        if base and cur["wall_s"] > 0:
            per[name] = base["wall_s"] / cur["wall_s"]
    out: Dict[str, object] = {"per_workload": per}
    shared = [name for name in current if name in baseline]
    base_wall = sum(baseline[name]["wall_s"] for name in shared)
    cur_wall = sum(current[name]["wall_s"] for name in shared)
    if base_wall > 0 and cur_wall > 0:
        out["aggregate_wall_time"] = base_wall / cur_wall
    return out


#: bench-gate tolerance: the accel basket may regress aggregate virtual
#: time by at most this fraction vs the checked-in 'accel' baseline
GATE_TOLERANCE = 0.05


def run_gate(
    path: str = DEFAULT_OUT,
    n_nodes: Optional[int] = None,
    jobs: Optional[int] = None,
    no_cache: bool = False,
) -> int:
    """Bench gate (``make bench-gate``): fail on virtual-time regression.

    Runs the full basket with the protocol accelerator on and compares
    aggregate virtual time against the checked-in ``accel`` section of
    *path*.  Virtual time is deterministic, so one repeat suffices and
    host noise cannot flake the gate: any delta is a real protocol
    change.  Returns 0 if within :data:`GATE_TOLERANCE`, 1 otherwise.

    The gate compares only deterministic virtual-time numbers, so its
    runs are fleet-cached (keyed by spec + source-tree digest): an
    unchanged tree re-runs the gate from cache with zero re-simulations.
    The hit/miss counters are printed so cache poisoning would be
    visible in CI logs; ``--no-cache`` / ``PARADE_CACHE=0`` bypasses.
    """
    from repro.fleet import default_cache, run_many
    from repro.fleet.spec import RunSpec

    report = load_report(path)
    ref = report.get("accel", {}).get("results")
    if not ref:
        print(f"bench-gate: no 'accel' baseline in {path}; "
              "run `python -m repro.bench.perf --accel` first")
        return 1
    nodes = n_nodes or int(report.get("nodes", 4))
    bk = _full_basket()
    missing = [name for name in ref if name not in bk]
    if missing:
        print(f"bench-gate: baseline workload(s) {missing} missing from basket")
        return 1
    cache = default_cache(no_cache)
    gate_names = list(ref)
    specs = [
        RunSpec.from_entry(name, bk[name], n_nodes=nodes, accel=True)
        for name in gate_names
    ]
    fleet = run_many(specs, jobs=jobs, cache=cache)
    print(f"  {fleet.summary()}")
    for frec in fleet.failures():
        print(f"bench-gate: {frec['workload']} failed: {frec.get('error')}")
        return 1
    cur = {
        name: _basket_record(frec)
        for name, frec in zip(gate_names, fleet.records)
    }
    base_vt = aggregate_virtual_s(ref)
    cur_vt = aggregate_virtual_s(cur)
    ratio = cur_vt / base_vt if base_vt > 0 else float("inf")
    for name in ref:
        b, c = float(ref[name]["virtual_s"]), float(cur[name]["virtual_s"])
        mark = "" if c <= b * (1 + GATE_TOLERANCE) else "   <-- regressed"
        print(f"  {name:<10} baseline={b * 1e3:9.3f} ms  current={c * 1e3:9.3f} ms"
              f"  ({(c / b - 1) * 100:+6.2f}%){mark}")
    print(f"  aggregate  baseline={base_vt * 1e3:9.3f} ms  "
          f"current={cur_vt * 1e3:9.3f} ms  ({(ratio - 1) * 100:+6.2f}%)")
    if ratio > 1 + GATE_TOLERANCE:
        print(f"bench-gate: FAIL — aggregate virtual time regressed "
              f"{(ratio - 1) * 100:.2f}% (> {GATE_TOLERANCE:.0%} tolerance)")
        return 1
    scale_rc = run_scale_gate(report, jobs=jobs, cache=cache)
    if scale_rc:
        return scale_rc
    print(f"bench-gate: OK (within {GATE_TOLERANCE:.0%} of baseline)")
    return 0


def run_scale_gate(report: dict, jobs: Optional[int] = None, cache=None) -> int:
    """Barrier-path regression gate on the checked-in 16-node scale point.

    If the report carries a ``scale`` section with the
    :data:`SCALE_GATE_NODES` point, re-run that point with hierarchical
    sync on and compare end-to-end virtual time *and* barrier-phase
    virtual time against the baseline — a change that slows only the
    barrier path (relay costs, merge work, departure fan-out) moves the
    second number long before it moves the first.  Virtual time is
    deterministic, so any drift beyond :data:`GATE_TOLERANCE` is a real
    protocol change.  Returns 0 when absent or within tolerance.
    """
    scale = report.get("scale")
    if not scale:
        return 0
    point = scale.get("points", {}).get(str(SCALE_GATE_NODES), {}).get("hier")
    if not point:
        return 0
    bk = _scale_basket(smoke=bool(scale.get("smoke")))
    gate_names = list(point.get("per_workload", {}))
    missing = [name for name in gate_names if name not in bk]
    if missing:
        print(f"scale-gate: baseline workload(s) {missing} missing from basket")
        return 1
    if not gate_names:
        return 0
    from repro.fleet import run_many

    specs = [
        _scale_spec(name, bk[name], SCALE_GATE_NODES, hier=True)
        for name in gate_names
    ]
    fleet = run_many(specs, jobs=jobs, cache=cache)
    print(f"  {fleet.summary()}")
    for frec in fleet.failures():
        print(f"scale-gate: {frec['workload']} failed: {frec.get('error')}")
        return 1
    per = {
        name: _scale_point_record(frec)
        for name, frec in zip(gate_names, fleet.records)
    }
    cur = _scale_aggregate(per)
    for metric, label in (("virtual_s", "virtual time"),
                          ("barrier_s", "barrier-phase virtual time")):
        b, c = float(point[metric]), float(cur[metric])
        ratio = c / b if b > 0 else float("inf")
        print(f"  scale@{SCALE_GATE_NODES}n {label:<27} "
              f"baseline={b * 1e3:9.3f} ms  current={c * 1e3:9.3f} ms  "
              f"({(ratio - 1) * 100:+6.2f}%)")
        if ratio > 1 + GATE_TOLERANCE:
            print(f"bench-gate: FAIL — {label} at {SCALE_GATE_NODES} nodes "
                  f"regressed {(ratio - 1) * 100:.2f}% "
                  f"(> {GATE_TOLERANCE:.0%} tolerance)")
            return 1
    return 0


def load_report(path: str) -> dict:
    """Load a perf report of any schema version.

    Schema-1 files (no per-section ``meta``) load unchanged — consumers
    must treat ``meta`` as optional.  A missing file yields an empty
    report, ready to receive its first section.
    """
    if os.path.exists(path):
        with open(path) as fh:
            report = json.load(fh)
        report.setdefault("schema", 1)
        return report
    return {}


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench.perf", description=__doc__.split("\n\n")[0]
    )
    ap.add_argument(
        "--baseline",
        action="store_true",
        help="record results into the 'baseline' section (pre-change run)",
    )
    ap.add_argument(
        "--smoke", action="store_true", help="tiny basket; CI regression mode"
    )
    ap.add_argument(
        "--accel",
        action="store_true",
        help="run with the protocol accelerator on; record into the 'accel' "
        "section and report virtual-time / message deltas vs the baseline",
    )
    ap.add_argument(
        "--gate",
        action="store_true",
        help="bench gate: run the accel basket and exit 1 if aggregate "
        "virtual time regressed more than 5%% vs the checked-in 'accel' "
        "baseline (no report rewrite)",
    )
    ap.add_argument(
        "--scale",
        action="store_true",
        help="scale-out sweep: run the scale basket at each --scale-nodes "
        "count, flat vs hierarchical sync, and record the per-point curves "
        "into the 'scale' section (the 16-node point becomes the "
        "scale-gate baseline)",
    )
    ap.add_argument(
        "--scale-nodes",
        default=None,
        help="comma-separated node counts for --scale "
        f"(default: {','.join(str(n) for n in SCALE_NODES)})",
    )
    ap.add_argument("--out", default=None, help="output JSON path")
    ap.add_argument("--nodes", type=int, default=4, help="cluster size (default 4)")
    ap.add_argument(
        "--repeat", type=int, default=2, help="runs per workload, best-of (default 2)"
    )
    ap.add_argument(
        "--workloads",
        default=None,
        help="comma-separated subset of the basket (default: all)",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="fleet worker processes (default: PARADE_JOBS env or cpu count); "
        "virtual-time results are bit-identical for any value",
    )
    ap.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the fleet run cache (gate/scale modes; PARADE_CACHE=0 "
        "does the same)",
    )
    args = ap.parse_args(argv)

    out = args.out or (SMOKE_OUT if args.smoke else DEFAULT_OUT)
    if args.gate:
        return run_gate(
            out,
            n_nodes=args.nodes if args.nodes != 4 else None,
            jobs=args.jobs,
            no_cache=args.no_cache,
        )
    if args.scale:
        from repro.fleet import default_cache

        counts = (
            [int(x) for x in args.scale_nodes.split(",") if x]
            if args.scale_nodes else None
        )
        print(f"scale sweep ({'smoke' if args.smoke else 'full'} basket, "
              f"flat vs hierarchical) -> {out} [scale]")
        section = run_scale(
            smoke=args.smoke,
            nodes=counts,
            jobs=args.jobs,
            cache=default_cache(args.no_cache),
        )
        report = load_report(out)
        report["schema"] = SCHEMA
        report["scale"] = section
        write_report(out, report)
        return 0
    names = args.workloads.split(",") if args.workloads else None
    section = "accel" if args.accel else ("baseline" if args.baseline else "current")
    print(f"perf basket ({'smoke' if args.smoke else 'full'}"
          f"{', protocol accel' if args.accel else ''}) -> {out} [{section}]")

    # recording modes never use the run cache: wall-clock freshness is the
    # point of a recorded section, and a cached wall time would lie
    results = run_basket(
        smoke=args.smoke, n_nodes=args.nodes, repeat=args.repeat, workloads=names,
        accel=args.accel, jobs=args.jobs,
    )

    report = load_report(out)
    report["schema"] = SCHEMA
    report["label"] = "parade-perf-basket" + ("-smoke" if args.smoke else "")
    report["nodes"] = args.nodes
    report["workloads"] = {k: v["note"] for k, v in basket(args.smoke).items()}
    report[section] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "meta": run_meta(args.nodes, accel=args.accel, smoke=args.smoke),
        "results": results,
    }
    if args.accel:
        # protocol effect vs the flags-off run (prefer the freshest section)
        ref = report.get("current") or report.get("baseline")
        if ref:
            report["accel_effect"] = accel_deltas(ref["results"], results)
            agg = report["accel_effect"].get("aggregate_virtual_time_reduction")
            if agg is not None:
                print(f"  accelerator: {agg:.1%} less aggregate virtual time")
    elif args.baseline:
        # a fresh baseline invalidates any previous comparison
        report.pop("current", None)
        report.pop("speedup", None)
    elif "baseline" in report:
        report["speedup"] = compute_speedup(report["baseline"]["results"], results)
        agg = report["speedup"].get("aggregate_wall_time")
        if agg:
            print(f"  basket speedup (wall time): {agg:.2f}x vs baseline")
    write_report(out, report)
    print(f"  aggregate: {aggregate_events_per_s(results):,.0f} events/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
