"""The benchmark's four workloads and the job that each one repeats.

A *job* is one or more complete simulation runs, each on a freshly
built :class:`~repro.runtime.ParadeRuntime`, followed by a check of
every result against its sequential reference.  Jobs of one workload
run one after another in one process (a closed loop with one client).

The seed sets the inputs: it draws each node's CPU clock within
``CLOCK_JITTER_MHZ`` of the paper testbed's 550/600 MHz, and on
``helmholtz-observed-4n`` job *i* runs under chaos seed ``seed + i``.
Inside one run of the benchmark every job of a clean workload is the
same simulation, so its virtual time, counters and value digest must
repeat exactly (:meth:`JobRecord.invariants`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.apps import cg, helmholtz
from repro.chaos.plan import plan_by_name
from repro.cluster.config import PAPER_CPU_MHZ, ClusterConfig
from repro.dsm.config import KDSM_BASELINE, PARADE_DSM
from repro.mpi.ops import SUM
from repro.runtime import TWO_THREAD_TWO_CPU, ParadeRuntime
from repro.trace import TraceRecorder

#: each node's clock is the testbed's plus a seeded offset in this range
CLOCK_JITTER_MHZ = 2

#: encounters per thread of each directive loop on ``sync-8n``
SYNC_ITERS = 10

#: DSM counters reported per layer (summed over a job's runs)
DSM_KEYS = (
    "read_faults", "write_faults", "pages_fetched", "fetch_bytes", "diffs_sent",
    "diff_bytes", "twins_created", "invalidations", "blocked_waits", "barriers",
    "updates_pushed", "updates_installed", "readahead_pages", "barrier_relays",
    "notices_merged", "lock_acquires", "lock_remote_grants", "diffs_piggybacked",
)
CHAOS_KEYS = ("frames", "retransmits", "dsm_reissues")


class CheckFailed(AssertionError):
    """A job produced a wrong value or broke a run guarantee."""


def value_digest(value) -> str:
    """SHA-256 over a program result, exact to the last bit of every
    float and array element."""
    h = hashlib.sha256()

    def feed(v):
        if dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                h.update(f.name.encode())
                feed(getattr(v, f.name))
        elif isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + str(v.shape).encode())
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


def seeded_cluster(n_nodes: int, seed: int) -> ClusterConfig:
    rng = random.Random(seed)
    mhz = tuple(
        PAPER_CPU_MHZ[i % len(PAPER_CPU_MHZ)]
        + rng.randint(-CLOCK_JITTER_MHZ, CLOCK_JITTER_MHZ)
        for i in range(n_nodes)
    )
    return ClusterConfig(n_nodes=n_nodes, cpu_mhz=mhz)


@dataclass
class Run:
    """One simulation of a job: runtime arguments, program and check."""

    label: str
    runtime_kwargs: Dict
    program: Callable[[], Callable]
    #: ``check(result, runtime)`` raises :class:`CheckFailed`
    check: Callable
    #: attach a TraceRecorder before the run starts
    trace: bool = False


@dataclass
class JobRecord:
    """What one job did: host times, virtual time and counters."""

    wall_s: float = 0.0
    build_s: float = 0.0
    virtual_s: float = 0.0
    events: int = 0
    msgs: int = 0
    bytes: int = 0
    compute_vs: float = 0.0
    overhead_vs: float = 0.0
    p2p: int = 0
    collectives: int = 0
    dsm: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(DSM_KEYS, 0))
    chaos: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(CHAOS_KEYS, 0))
    trace_events: int = 0
    sanitizer_findings: int = 0
    metrics_samples: int = 0
    #: profiler group -> virtual thread-seconds (profiled jobs only)
    phases: Dict[str, float] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)

    def add(self, res, rt, recorder: Optional[TraceRecorder]) -> None:
        cs = res.cluster_stats
        self.virtual_s += res.elapsed
        self.events += int(cs["events_processed"])
        self.msgs += int(cs["total_messages"])
        self.bytes += int(cs["total_bytes"])
        self.compute_vs += cs["compute_time"]
        self.overhead_vs += cs["overhead_time"]
        self.p2p += res.mpi_stats["p2p"]
        self.collectives += res.mpi_stats["collectives"]
        for k in DSM_KEYS:
            self.dsm[k] += res.dsm_stats.get(k, 0)
        for k in CHAOS_KEYS:
            self.chaos[k] += res.chaos_stats.get(k, 0)
        if recorder is not None:
            self.trace_events += recorder.n_emitted
        if rt.sanitizer is not None:
            self.sanitizer_findings += len(rt.sanitizer.findings)
        if rt.metrics is not None:
            self.metrics_samples += rt.metrics.n_samples
        if rt.profiler is not None:
            for g, sec in rt.profiler.group_totals().items():
                self.phases[g] = self.phases.get(g, 0.0) + sec
        self.digests.append(value_digest(res.value))

    def invariants(self) -> Dict[str, object]:
        """Values that a deterministic job repeats exactly."""
        return {
            "virtual_s": self.virtual_s,
            "events": self.events,
            "msgs": self.msgs,
            "bytes": self.bytes,
            "digest": hashlib.sha256("".join(self.digests).encode()).hexdigest(),
        }


def runtime_kwargs(n_nodes: int, seed: int, mode: str = "parade", *, pool_bytes: int,
                   accel: bool = False, hier: bool = False, observed: bool = False,
                   chaos_seed: int = 0) -> Dict:
    """Every :class:`ParadeRuntime` argument, spelled out so that no
    default or environment variable (``PARADE_METRICS``) changes a run."""
    return {
        "n_nodes": n_nodes,
        "exec_config": TWO_THREAD_TWO_CPU,
        "mode": mode,
        "dsm_config": PARADE_DSM if mode == "parade" else KDSM_BASELINE,
        "protocol_accel": accel,
        "hierarchical": hier,
        "cluster_config": seeded_cluster(n_nodes, seed),
        "pool_bytes": pool_bytes,
        "sanitize": observed,
        "profile": observed,
        "fault_plan": plan_by_name("drop") if observed else None,
        "chaos_seed": chaos_seed,
        "reliability": None,
        "metrics": observed,
        "metrics_period": 1e-4,
    }


def run_job(workload: "Workload", index: int, profile: bool = False) -> JobRecord:
    """Build and run every simulation of job *index*, then check them.
    Host time covers building and running; the checks are not timed."""
    rec = JobRecord()
    outcomes = []
    for run in workload.runs(index):
        kwargs = dict(run.runtime_kwargs)
        kwargs["profile"] = kwargs["profile"] or profile
        t0 = time.perf_counter()
        rt = ParadeRuntime(**kwargs)
        t1 = time.perf_counter()
        recorder = TraceRecorder(rt.sim, capacity=1 << 16) if run.trace else None
        res = rt.run(run.program(), time_limit=workload.time_limit)
        t2 = time.perf_counter()
        rec.build_s += t1 - t0
        rec.wall_s += t2 - t0
        outcomes.append((run, res, rt, recorder))
    for run, res, rt, recorder in outcomes:
        try:
            run.check(res, rt)
        except CheckFailed as exc:
            raise CheckFailed(f"{run.label}: {exc}") from None
        rec.add(res, rt, recorder)
    return rec


class Workload:
    """One benchmark workload; the reasons for each are in README.md."""

    name = ""
    #: virtual-seconds limit of each run: a hang becomes a failed job
    time_limit = 1.0
    #: True when every job repeats the same simulation exactly
    deterministic = True
    #: per-layer counters predicted to stay zero on this workload
    expect_zero: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Build the sequential references (part of set-up time)."""

    def runs(self, index: int) -> List[Run]:
        raise NotImplementedError


_ACCEL_COUNTERS = ("dsm.updates_pushed", "dsm.readahead_pages", "dsm.barrier_relays",
                   "dsm.notices_merged")
_LOCK_COUNTERS = ("dsm.lock_acquires", "dsm.lock_remote_grants", "dsm.diffs_piggybacked",
                  "dsm.sync_self_s")
_OBSERVER_TIMES = ("trace.self_s", "profile.self_s", "sanitizer.self_s", "metrics.self_s",
                   "chaos.self_s")


class CgWorkload(Workload):
    name = "cg-8n"
    time_limit = 2.0
    expect_zero = _ACCEL_COUNTERS + _LOCK_COUNTERS + _OBSERVER_TIMES

    def setup(self) -> None:
        self.matrix = cg.make_matrix("S")
        self.ref = cg.cg_reference("S", a=self.matrix, niter=1)

    def check(self, res, rt) -> None:
        zeta = res.value.zeta
        if not abs(zeta - self.ref.zeta) <= 1e-10 * abs(self.ref.zeta):
            raise CheckFailed(f"zeta {zeta!r} != reference {self.ref.zeta!r}")

    def runs(self, index: int) -> List[Run]:
        return [Run(
            "cg",
            runtime_kwargs(8, self.seed, pool_bytes=1 << 23),
            lambda: cg.make_program("S", a=self.matrix, niter=1),
            self.check,
        )]


class HelmholtzAccelWorkload(Workload):
    name = "helmholtz-accel-16n"
    time_limit = 0.5
    expect_zero = _LOCK_COUNTERS + _OBSERVER_TIMES
    N, ITERS = 160, 10

    def setup(self) -> None:
        self.ref = helmholtz.helmholtz_reference(self.N, self.N, max_iters=self.ITERS)

    def check(self, res, rt) -> None:
        if not np.array_equal(res.value.u, self.ref.u):
            err = float(np.abs(res.value.u - self.ref.u).max())
            raise CheckFailed(f"u differs from the reference (max |diff| {err:.3g})")

    def runs(self, index: int) -> List[Run]:
        return [Run(
            "helmholtz",
            runtime_kwargs(16, self.seed, pool_bytes=1 << 23, accel=True, hier=True),
            lambda: helmholtz.make_program(self.N, self.N, max_iters=self.ITERS),
            self.check,
        )]


def critical_program(iters: int):
    """Figure 6 encounter loop: every thread adds 1.0 under ``critical``
    *iters* times; returns the final shared value."""

    def program(ctx):
        x = ctx.shared_scalar("mb_x")

        def body(tc, x):
            for _ in range(iters):
                yield from tc.critical_update(x, 1.0, SUM)

        yield from ctx.parallel(body, x)
        total = yield from ctx.scalar(x).get()
        return float(total)

    return program


def single_program(iters: int, executed: List[int]):
    """Figure 7 encounter loop: *iters* ``single`` blocks; each execution
    of a block body appends its encounter index to *executed*."""

    def program(ctx):
        v = ctx.shared_scalar("mb_v")

        def body(tc, v):
            for i in range(iters):
                def init(i=i):
                    executed.append(i)
                    return float(i)
                    yield  # a generator body, as the directive expects

                yield from tc.single(body_gen_fn=init, shared_scalar=v)

        yield from ctx.parallel(body, v)
        return list(executed)

    return program


class SyncWorkload(Workload):
    name = "sync-8n"
    time_limit = 1.0
    expect_zero = _OBSERVER_TIMES
    N_NODES = 8

    def runs(self, index: int) -> List[Run]:
        n_threads = self.N_NODES * TWO_THREAD_TWO_CPU.threads_per_node
        want_total = float(SYNC_ITERS * n_threads)
        want_single = list(range(SYNC_ITERS))

        def check_critical(res, rt):
            if res.value != want_total:
                raise CheckFailed(f"critical total {res.value!r} != {want_total!r}")

        def check_single(res, rt):
            if res.value != want_single:
                raise CheckFailed(f"single bodies ran {res.value!r}, want {want_single!r}")

        out = []
        for mode, accel in (("parade", False), ("sdsm", False), ("sdsm", True)):
            kw = runtime_kwargs(self.N_NODES, self.seed, mode, pool_bytes=1 << 20,
                                accel=accel, hier=accel)
            tag = ("parade" if mode == "parade" else "kdsm") + ("-accel-hier" if accel else "")
            out.append(Run(f"{tag} critical", kw, lambda: critical_program(SYNC_ITERS),
                           check_critical))
            if not accel:
                out.append(Run(f"{tag} single", kw,
                               lambda: single_program(SYNC_ITERS, []), check_single))
        return out


class HelmholtzObservedWorkload(Workload):
    name = "helmholtz-observed-4n"
    time_limit = 0.5
    deterministic = False
    N, ITERS = 96, 6

    def setup(self) -> None:
        self.ref = helmholtz.helmholtz_reference(self.N, self.N, max_iters=self.ITERS)

    def check(self, res, rt) -> None:
        if not np.array_equal(res.value.u, self.ref.u):
            raise CheckFailed("u differs from the reference under chaos")
        if not rt.sanitizer.ok:
            raise CheckFailed(f"sanitizer: {rt.sanitizer.summary()}")
        cs = res.chaos_stats
        lost = cs["drops"] + cs["flap_drops"] + cs["corrupts"]
        if lost and not cs["retransmits"]:
            raise CheckFailed(f"{lost} frames lost but none retransmitted")
        bound = rt.chaos.plan.reliability.max_retries + 1
        if cs["max_attempts"] > bound:
            raise CheckFailed(f"a frame took {cs['max_attempts']} attempts (bound {bound})")
        if rt.chaos.outstanding_frames:
            raise CheckFailed(f"{rt.chaos.outstanding_frames} frames never acknowledged")

    def runs(self, index: int) -> List[Run]:
        return [Run(
            "helmholtz",
            runtime_kwargs(4, self.seed, pool_bytes=1 << 21, observed=True,
                           chaos_seed=self.seed + index),
            lambda: helmholtz.make_program(self.N, self.N, max_iters=self.ITERS),
            self.check,
            trace=True,
        )]


WORKLOADS = {w.name: w for w in (
    CgWorkload, HelmholtzAccelWorkload, SyncWorkload, HelmholtzObservedWorkload,
)}
