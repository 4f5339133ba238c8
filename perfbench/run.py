"""Benchmark runner: one workload, one seed, one closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cg-8n --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up, then runs jobs back to back for ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` sets up, runs a few
untraced jobs, one job with every layer's entry points wrapped in spans
(see ``layers.py``) and one profiled job, and reports the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run details, the span
table and the sample counts go to ``.perfbench/`` in the repository.

The simulator is imported from ``src/`` next to this directory; without
it the script exits with code 2 before printing a result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: set-up repetitions; ``setup_s`` reports their median
SETUP_REPS = 3
#: untraced jobs a ``--trace 1`` run makes before its traced job
UNTRACED_JOBS = 3
#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def fix_memory_layout():
    """Make resident memory independent of allocation history and of
    where the kernel places mappings.

    * Pin glibc's mmap threshold at its default (128 KiB).  Left dynamic,
      glibc raises it after large blocks are freed, and each job's
      multi-megabyte DSM pools then come from the heap and are zeroed
      eagerly instead of mapped lazily.
    * Stop numpy from asking for transparent huge pages on large arrays:
      whether a pool gets them depends on its address, which changes from
      process to process, and a huge page makes a pool's first touched
      byte resident as 2 MiB.

    Call before numpy is imported."""
    import ctypes

    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return  # not glibc: nothing to pin
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    M_MMAP_THRESHOLD = -3
    mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(samples):
    """``(value, percentile)`` of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, never below the median: with fewer
    than ``2 * TAIL_BEYOND`` samples that is the upper median."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n


def run_meta(seed):
    import numpy

    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": rev,
        "seed": seed,
    }


class Loop:
    """Runs jobs of one workload and keeps the failure accounting."""

    def __init__(self):
        self.workload = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def job(self, index, profile=False):
        """One job; a failure is recorded and returns None.  The previous
        job's garbage is collected first, outside the job's time."""
        from workloads import run_job

        gc.collect()
        self.attempted += 1
        try:
            return run_job(self.workload, index, profile=profile)
        except Exception as exc:  # noqa: BLE001 — a failed job must not stop the loop
            self.failed += 1
            self.errors.append(f"job {index}: {type(exc).__name__}: {exc}")
            traceback.print_exc(limit=8, file=sys.stderr)
            return None


def set_up(workload_cls, seed, import_s):
    """Build references and run one warm-up job, ``SETUP_REPS`` times.

    Returns the workload, the loop, the set-up seconds (import plus the
    median repetition, on the reference host), the warm-up records and
    the last host-speed probe."""
    import hostspeed

    probe_s = first_probe = hostspeed.probe()
    reps, warm = [], []
    loop = Loop()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        loop.workload = workload_cls(seed)
        loop.workload.setup()
        warm.append(loop.job(0))
        took = time.perf_counter() - t0
        after = hostspeed.probe()
        reps.append(hostspeed.scale(took, (probe_s + after) / 2))
        probe_s = after
    setup_s = hostspeed.scale(import_s, first_probe) + statistics.median(reps)
    return loop.workload, loop, setup_s, warm, probe_s


class Invariants:
    """Exact repeat checks of a deterministic workload."""

    def __init__(self, deterministic):
        self.deterministic = deterministic
        self.first = None
        self.violations = []

    def check(self, rec, what):
        if rec is None:
            return
        inv = rec.invariants()
        if not self.deterministic:
            inv = {"digest": inv["digest"]}
        if self.first is None:
            self.first = inv
        elif inv != self.first:
            diff = {k: (self.first[k], inv[k]) for k in inv if inv[k] != self.first[k]}
            self.violations.append(f"{what}: {diff}")


def end_to_end(args, workload, loop, setup_s, warm, probe_s):
    """Jobs back to back for ``args.seconds``, each followed by a
    host-speed probe; job times are reported on the reference host."""
    import hostspeed

    inv = Invariants(workload.deterministic)
    for rec in warm:
        inv.check(rec, "warm-up job")
    records, walls, probes = [], [], []
    t0 = time.perf_counter()
    index = 0
    while time.perf_counter() - t0 < args.seconds:
        rec = loop.job(index)
        after = hostspeed.probe()
        inv.check(rec, f"job {index}")
        if rec is not None:
            records.append(rec)
            walls.append(hostspeed.scale(rec.wall_s, (probe_s + after) / 2))
        probes.append(after)
        probe_s = after
        index += 1
    tail_s, tail_pct = tail(walls) if walls else (0.0, 0.0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_wall_s.p50": (statistics.median(walls) if walls else 0.0, "s"),
        "job_wall_s.tail": (tail_s, "s"),
        "virtual_s": (statistics.fmean(r.virtual_s for r in records) if records else 0.0,
                      "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "job_ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }
    raw = [r.wall_s for r in records]
    details = {
        "samples": len(walls),
        "tail_percentile": tail_pct,
        "job_wall_s": walls,
        "raw_job_wall_s": raw,
        "raw_job_wall_s.p50": statistics.median(raw) if raw else 0.0,
        "probe_s": probes,
    }
    return metrics, inv.violations, details


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, loop, warm):
    import layers
    from spans import SpanRecorder

    # every job here is job 0, so even a chaos workload repeats exactly
    inv = Invariants(deterministic=True)
    inv.check(warm[0], "warm-up job")
    untraced = [loop.job(0) for _ in range(UNTRACED_JOBS)]
    for rec in untraced:
        inv.check(rec, "untraced job")
    ok = [r for r in untraced if r is not None]

    spans = SpanRecorder()
    installed = layers.install(spans)
    try:
        traced = loop.job(0)
    finally:
        installed.restore()
    inv.check(traced, "traced job")
    profiled = loop.job(0, profile=True)
    inv.check(profiled, "profiled job")
    if traced is None or profiled is None or not ok:
        return {}, inv.violations, {}

    table = spans.table()
    totals = spans.totals(table)
    by_layer = installed.layer_totals(totals)
    self_s = {k: v["self_s"] for k, v in by_layer.items()}
    unattributed = traced.wall_s - spans.top_s(table)
    balance = sum(self_s.values()) + unattributed - traced.wall_s
    if abs(balance) > 1e-6 * traced.wall_s:
        inv.violations.append(f"layer self times miss the traced wall time by {balance!r} s")
    fast = totals.get("dsm.access:DsmNode.try_fast_access", {"calls": 0, "hits": 0})
    d, c = traced.dsm, traced.chaos
    phase_total = sum(profiled.phases.values())
    m = {
        "sim.events": (traced.events, "count"),
        "sim.resource_requests": (totals["sim:Resource.request"]["calls"], "count"),
        "sim.self_s": (self_s["sim"], "s"),
        "sim.host_us_per_event": (1e6 * ratio(self_s["sim"], traced.events), "us"),
        "cluster.msgs": (traced.msgs, "count"),
        "cluster.bytes": (traced.bytes, "B"),
        "cluster.overhead_vs": (traced.overhead_vs, "s"),
        "cluster.compute_vs": (traced.compute_vs, "s"),
        "cluster.self_s": (self_s["cluster"], "s"),
        "vm.calls": (by_layer["vm"]["calls"], "count"),
        "vm.self_s": (self_s["vm"], "s"),
        "dsm.fast_path_hit_ratio": (ratio(fast["hits"], fast["calls"]), "ratio"),
        "dsm.access_self_s": (self_s["dsm.access"], "s"),
    }
    for k in ("read_faults", "write_faults", "pages_fetched", "invalidations",
              "diffs_sent", "twins_created", "blocked_waits", "barriers",
              "updates_pushed", "readahead_pages", "barrier_relays", "notices_merged",
              "lock_acquires", "lock_remote_grants", "diffs_piggybacked"):
        m[f"dsm.{k}"] = (d[k], "count")
    m["dsm.fetch_bytes"] = (d["fetch_bytes"], "B")
    m["dsm.diff_bytes"] = (d["diff_bytes"], "B")
    m["dsm.handler_self_s"] = (self_s["dsm.handler"], "s")
    m["dsm.push_useful_ratio"] = (ratio(d["updates_installed"], d["updates_pushed"]), "ratio")
    m["dsm.sync_self_s"] = (self_s["dsm.sync"], "s")
    m["mpi.p2p"] = (traced.p2p, "count")
    m["mpi.collectives"] = (traced.collectives, "count")
    m["mpi.self_s"] = (self_s["mpi"], "s")
    for g in ("compute", "cpu", "stall", "sync", "comm", "idle"):
        m[f"phase.{g}_frac"] = (ratio(profiled.phases.get(g, 0.0), phase_total), "ratio")
    m["runtime.build_s"] = (statistics.median(r.build_s for r in ok), "s")
    m["runtime.self_s"] = (self_s["runtime"], "s")
    m["apps.self_s"] = (self_s["apps"], "s")
    m["trace.events"] = (traced.trace_events, "count")
    m["trace.self_s"] = (self_s["trace"], "s")
    m["profile.self_s"] = (self_s["profile"], "s")
    m["sanitizer.findings"] = (traced.sanitizer_findings, "count")
    m["sanitizer.self_s"] = (self_s["sanitizer"], "s")
    m["metrics.samples"] = (traced.metrics_samples, "count")
    m["metrics.self_s"] = (self_s["metrics"], "s")
    m["chaos.frames"] = (c["frames"], "count")
    m["chaos.retransmits"] = (c["retransmits"], "count")
    m["chaos.retransmit_ratio"] = (ratio(c["retransmits"], c["frames"]), "ratio")
    m["chaos.dsm_reissues"] = (c["dsm_reissues"], "count")
    m["chaos.self_s"] = (self_s["chaos"], "s")
    m["bench.trace_overhead_ratio"] = (
        traced.wall_s / statistics.median(r.wall_s for r in ok), "ratio")
    m["bench.unattributed_s"] = (unattributed, "s")

    bypass = [k for k in workload.expect_zero if m[k][0] != 0]
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}.npz"
    spans.save(spans_file, table)
    details = {
        "spans": len(spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "layers": by_layer,
        "span_totals": totals,
        "unwrapped": installed.missing,
        "bypass_predictions_broken": bypass,
    }
    if bypass:
        print(f"note: predicted-zero metrics are non-zero: {bypass}", file=sys.stderr)
    return m, inv.violations, details


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    fix_memory_layout()
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401 — timed as part of set-up

    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload, loop, setup_s, warm, probe_s = set_up(workload_cls, args.seed, import_s)
    if args.trace:
        metrics, violations, details = per_layer(workload, loop, warm)
    else:
        metrics, violations, details = end_to_end(args, workload, loop, setup_s, warm,
                                                  probe_s)

    for v in violations:
        print(f"invariant broken: {v}", file=sys.stderr)
    correct = loop.failed == 0 and not violations and bool(metrics)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "meta": run_meta(args.seed),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "invariant_violations": violations,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    if "samples" in details:
        print(f"{details['samples']} jobs timed; tail is p{details['tail_percentile']:.1f}; "
              f"unscaled job_wall_s.p50 {details['raw_job_wall_s.p50']:.6g} s")
    out_metrics = {}
    for name, (value, unit) in metrics.items():
        value = float(value) if isinstance(value, float) else int(value)
        if isinstance(value, float) and not math.isfinite(value):
            value, correct = 0.0, False
        out_metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
