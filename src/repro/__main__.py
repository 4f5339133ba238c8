"""One command line for every simulation: ``run``, ``sweep`` and ``diff``.

Usage::

    python -m repro run --list                  # workloads (--list-plans: fault plans)
    python -m repro run helmholtz --nodes 2 --trace trace.json --csv trace.csv
    python -m repro run cg --nodes 2 --mode sdsm --profile --check
    python -m repro run racy-ww --nodes 2 --sanitize --expect-races
    python -m repro run cg --nodes 8 --chaos drop --seed 3
    python -m repro run helmholtz --metrics --json hh.metrics.json
    python -m repro sweep --nodes 2 --sanitize  # every clean app, race-free
    python -m repro sweep --plans drop,dup,reorder,latency-spike   # reliability gate
    python -m repro diff A.jsonl B.jsonl        # align two --jsonl traces

``run`` simulates one registered workload.  It builds the runtime from a
:class:`~repro.fleet.RunSpec` through :func:`repro.fleet.build_runtime`,
so a CLI run and a fleet run of the same spec are the same simulation,
and attaches the observers the flags ask for: ``--trace`` (Chrome trace
JSON, loadable in Perfetto, replay-checked against the protocol
specification unless ``--no-check``), ``--profile`` (virtual-time phase
table, critical path, hot pages and locks), ``--sanitize``
(happens-before race detection and protocol invariants), ``--chaos PLAN``
(seeded fault injection, checked against a fault-free run of the same
spec) and ``--metrics`` (the workload scorecard).

``sweep`` runs the cross product of workloads and (fault-free plus
``--plans``) as one fleet basket, across ``--jobs`` worker processes and
through the run cache; verdicts are bit-identical for any job count.

Exit codes: 0 — every verdict passed; 1 — usage error (``diff``: the
traces differ); 2 — a verdict failed: the trace replay check, the
profiler ``--check``, sanitizer findings (``--expect-races`` inverts
this one), or recovery from injected faults; 141 — the reader closed
standard output (``| head``), as a shell reports SIGPIPE.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional

#: trace ring capacity in events when ``--ring`` is not given
DEFAULT_RING = 1 << 18
#: sanitizer findings printed per run
SHOWN_FINDINGS = 10
#: run options that need an observer attached, by argparse dest
_NEEDS = {
    "csv": "trace", "jsonl": "trace", "ring": "trace", "cats": "trace",
    "no_check": "trace", "check": "profile", "chrome": "profile",
    "expect_races": "sanitize",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one stderr line, before any runtime is built."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def _registry() -> Dict[str, dict]:
    from repro.apps.racy import racy_programs
    from repro.bench.figures import registered_programs

    return {**registered_programs(), **racy_programs()}


def _app(name: str) -> str:
    if name not in _registry():
        raise argparse.ArgumentTypeError(
            f"unknown app {name!r}; registered: {', '.join(sorted(_registry()))}")
    return name


def _plan(name: str) -> str:
    from repro.chaos.plan import plan_by_name

    try:
        return plan_by_name(name).name
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _comma_list(item):
    def parse(text: str) -> List[str]:
        return [item(x) for x in text.split(",") if x]

    return parse


def _exec(name: str) -> str:
    from repro.runtime import ALL_EXEC_CONFIGS

    names = [ec.name for ec in ALL_EXEC_CONFIGS]
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"unknown exec config {name!r}; use one of: {', '.join(names)}")
    return name


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _cats(text: str) -> frozenset:
    from repro.trace.events import ALL_CATEGORIES

    cats = frozenset(c.strip() for c in text.split(",") if c.strip())
    if cats - ALL_CATEGORIES:
        raise argparse.ArgumentTypeError(
            f"unknown categories: {', '.join(sorted(cats - ALL_CATEGORIES))}")
    return cats


def _build_parser():
    parser = _Parser(
        prog="python -m repro",
        description="run, sweep and diff ParADE simulations",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--nodes", type=_positive, default=4, help="cluster size (default 4)")
    shared.add_argument(
        "--mode", choices=("parade", "sdsm"), default="parade",
        help="hybrid ParADE translation or conventional SDSM (default parade)",
    )
    shared.add_argument(
        "--exec", dest="exec_name", metavar="CONFIG", type=_exec, default="2Thread-2CPU",
        help="execution configuration: 1Thread-1CPU, 1Thread-2CPU or "
        "2Thread-2CPU (default)",
    )
    shared.add_argument(
        "--accel", action="store_true",
        help="protocol accelerator on (lock-grant piggybacking, adaptive "
        "migration + update push)",
    )
    shared.add_argument(
        "--hier", action="store_true",
        help="hierarchical synchronization on (tree barrier)",
    )
    shared.add_argument(
        "--seed", type=int, default=0,
        help="chaos seed; one (plan, seed) pair reproduces every fault "
        "bit-for-bit (default 0)",
    )
    shared.add_argument(
        "--sanitize", action="store_true",
        help="attach the happens-before sanitizer; findings fail the command",
    )

    run = sub.add_parser(
        "run", parents=[shared],
        help="run one workload with the observers the flags ask for",
        description="run one registered workload; exit 2 when a verdict fails",
    )
    run.add_argument(
        "app", nargs="?", default="helmholtz", type=_app,
        help="registered workload name (see --list); default: helmholtz",
    )
    run.add_argument("--list", action="store_true", help="list workloads and exit")
    run.add_argument("--list-plans", action="store_true", help="list stock fault plans and exit")
    run.add_argument(
        "--trace", metavar="OUT",
        help="record a protocol trace, write it to OUT as Chrome trace JSON "
        "(Perfetto-loadable) and replay-check it",
    )
    run.add_argument("--csv", help="with --trace: also write a flat CSV of events")
    run.add_argument(
        "--jsonl",
        help="with --trace: also write one JSON object per event (input of diff)",
    )
    run.add_argument(
        "--ring", type=_positive,
        help=f"with --trace: ring capacity in events (default {DEFAULT_RING}); "
        "oldest evicted",
    )
    run.add_argument(
        "--cats", type=_cats,
        help="with --trace: comma-separated categories to record (default: "
        "all except 'sim')",
    )
    run.add_argument(
        "--no-check", action="store_true",
        help="with --trace: skip the protocol replay check",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="attach the virtual-time profiler: phase table, critical path, "
        "hot pages/locks",
    )
    run.add_argument(
        "--check", action="store_true",
        help="with --profile: assert phase sums = thread lifetimes and the "
        "JSON round trip",
    )
    run.add_argument(
        "--chrome",
        help="with --profile: write phase slices + group counters as Chrome trace JSON",
    )
    run.add_argument(
        "--expect-races", action="store_true",
        help="with --sanitize: fail if NO race is found (for the seeded racy-* workloads)",
    )
    run.add_argument(
        "--chaos", metavar="PLAN", type=_plan,
        help="inject the stock fault plan PLAN (see --list-plans) and require "
        "bit-identical recovery against a fault-free run",
    )
    run.add_argument(
        "--metrics", action="store_true",
        help="attach live metrics and print the workload scorecard",
    )
    run.add_argument(
        "--json",
        help="with --profile: write the full report as JSON; with --metrics: "
        "write the metrics dump",
    )

    sweep = sub.add_parser(
        "sweep", parents=[shared],
        help="run workloads x (fault-free + fault plans) as one fleet basket",
        description="run every selected workload fault-free and under each "
        "fault plan; exit 2 when a run fails to recover or (with --sanitize) "
        "reports a finding",
    )
    sweep.add_argument(
        "--apps", type=_comma_list(_app), default=[],
        help="comma list of workloads (default: every registered clean app)",
    )
    sweep.add_argument(
        "--plans", type=_comma_list(_plan), default=[],
        help="comma list of fault plans (default: none, fault-free runs only)",
    )
    sweep.add_argument(
        "--jobs", type=_positive, default=None,
        help="fleet worker processes (default: PARADE_JOBS env or cpu count); "
        "results are bit-identical for any value",
    )
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="bypass the fleet run cache (PARADE_CACHE=0 does the same)",
    )

    diff = sub.add_parser(
        "diff", help="align two JSONL traces event by event",
        description="report the first divergence and per-event-type count/byte "
        "deltas of two traces written by run --trace ... --jsonl",
    )
    diff.add_argument("a", help="first trace (JSONL)")
    diff.add_argument("b", help="second trace (JSONL)")

    run.set_defaults(handler=_run)
    sweep.set_defaults(handler=_sweep)
    diff.set_defaults(handler=_diff)
    return parser, run


def _parse_args(argv: Optional[List[str]]):
    parser, run = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "run":
        for dest, observer in _NEEDS.items():
            if getattr(args, dest) not in (None, False) and not getattr(args, observer):
                run.error(f"--{dest.replace('_', '-')} needs --{observer}")
        if args.json and args.profile == args.metrics:
            run.error("--json needs exactly one of --profile and --metrics")
    return args


def _spec(args, app: str, plan: Optional[str] = None, **kw):
    from repro.fleet import RunSpec

    return RunSpec.from_entry(
        app, _registry()[app],
        n_nodes=args.nodes, mode=args.mode, exec_name=args.exec_name,
        accel=args.accel, hier=args.hier, sanitize=args.sanitize,
        fault_plan=plan, chaos_seed=args.seed if plan else 0, **kw,
    )


def _lost(chaos_stats: Dict) -> int:
    return sum(chaos_stats.get(k, 0) for k in ("drops", "flap_drops", "corrupts"))


def _verdict(rec: Dict, base: Optional[Dict] = None, plan: Optional[str] = None,
             expect_races: bool = False) -> List[str]:
    """Every guarantee one run record must meet; ``run`` and ``sweep``
    share this single definition.  Under fault *plan* the value digest
    must equal the fault-free *base* record's, and every lost frame must
    have been retransmitted within the plan's retry bound.  A sanitized
    record must report no finding (with *expect_races*: at least one)."""
    failures = []
    if plan is not None:
        from repro.chaos.plan import plan_by_name

        if rec["value_digest"] != base["value_digest"]:
            failures.append("numerical result differs from the fault-free run")
        cs = rec["chaos_stats"]
        if _lost(cs) and not cs.get("retransmits", 0):
            failures.append(f"{_lost(cs)} frames lost but zero retransmits recorded")
        bound = plan_by_name(plan).reliability.max_retries + 1
        if cs.get("max_attempts", 0) > bound:
            failures.append(f"a frame took {cs['max_attempts']} attempts (bound is {bound})")
    san = rec.get("sanitizer")
    if san is not None and san["ok"] == expect_races:
        failures.append("expected races but the run came back clean" if expect_races
                        else f"sanitizer reported {san['n_findings']} finding(s)")
    return failures


def _print_sanitizer(san: Dict, indent: str = "") -> None:
    print(indent + san["summary"])
    shown = san["findings"][:SHOWN_FINDINGS]
    for line in shown:
        print(f"{indent}  {line}")
    if san["n_findings"] > len(shown):
        print(f"{indent}  ... and {san['n_findings'] - len(shown)} more")


def _report_trace(args, recorder, label: str) -> List[str]:
    from repro.trace.checker import check_trace
    from repro.trace.export import write_chrome_json, write_csv_events, write_jsonl

    events = recorder.events
    n_records = write_chrome_json(events, args.trace, label=label)
    print(f"trace: {len(events)} events ({recorder.n_dropped} evicted, "
          f"ring {recorder.capacity}) -> {args.trace} ({n_records} records)")
    for cat, n in sorted(recorder.counts_by_category().items()):
        print(f"  {cat:<12} {n}")
    if args.csv:
        print(f"csv  : {write_csv_events(events, args.csv)} rows -> {args.csv}")
    if args.jsonl:
        print(f"jsonl: {write_jsonl(events, args.jsonl)} events -> {args.jsonl}")
    if args.no_check:
        return []
    report = check_trace(events)
    print(report.summary())
    return [] if report.ok else ["protocol replay check found violations"]


def _report_profile(args, prof, result, label: str) -> List[str]:
    import json

    from repro.profile.export import write_profile_chrome
    from repro.profile.report import ProfileReport

    meta = {
        "app": args.app, "mode": args.mode, "nodes": args.nodes,
        "exec": args.exec_name, "title": label,
        "elapsed_virtual_s": result.elapsed,
    }
    report = ProfileReport.from_profiler(prof, meta=meta)
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=1, sort_keys=True)
        print(f"json : report -> {args.json}")
    if args.chrome:
        n = write_profile_chrome(prof, args.chrome, label=label)
        print(f"chrome: {n} records -> {args.chrome}")
    if not args.check:
        return []
    problems = report.check()
    # the report must survive a JSON round trip bit-for-bit
    round_tripped = ProfileReport.from_dict(json.loads(json.dumps(report.as_dict())))
    if round_tripped.as_dict() != report.as_dict():
        problems.append("report does not round-trip through JSON")
    if round_tripped.render() != report.render():
        problems.append("rendered report differs after JSON round trip")
    if not problems:
        print(f"check: ok ({len(report.data['threads'])} threads, "
              f"max phase-sum error {report.data['max_sum_error']:.3g} s)")
    return problems


def _report_metrics(args, result, metrics, wall: float) -> None:
    from repro.metrics.export import write_dump
    from repro.metrics.scorecard import build_scorecard, render_scorecards

    print(render_scorecards([build_scorecard(args.app, result, metrics, wall_s=wall)]), end="")
    if args.json:
        dump = metrics.dump(meta={"app": args.app, "nodes": args.nodes,
                                  "mode": args.mode, "wall_s": wall})
        write_dump(dump, args.json)
        print(f"json : {len(dump['series'])} series -> {args.json}")


def _run(args) -> int:
    if args.list:
        for name, entry in sorted(_registry().items()):
            print(f"{name:<12} {entry['figure']:<6} {entry['note']}")
        return 0
    if args.list_plans:
        from repro.chaos.plan import PLANS

        for name, plan in sorted(PLANS.items()):
            print(f"{name:<14} {plan.description}")
        return 0

    from repro.fleet.spec import build_runtime, execute, resolve_factory, run_record

    spec = _spec(args, args.app, args.chaos, metrics=args.metrics)
    rt = build_runtime(spec, observe=True)
    recorder = prof = None
    if args.trace:
        from repro.trace.recorder import TraceRecorder

        recorder = TraceRecorder(rt.sim, capacity=args.ring or DEFAULT_RING,
                                 categories=args.cats)
    if args.profile:
        from repro.profile.profiler import Profiler

        prof = Profiler(rt.sim)
    t0 = time.perf_counter()
    result = rt.run(resolve_factory(spec.factory, spec.factory_kwargs)())
    rec = run_record(spec, rt, result, time.perf_counter() - t0)

    label = f"{args.app}/{args.mode}/{args.nodes}n/{args.exec_name}"
    print(f"{label}: elapsed {result.elapsed * 1e3:.3f} ms (virtual)")
    print(f"value digest: {rec['value_digest']}")
    failures: List[str] = []
    if recorder is not None:
        failures += _report_trace(args, recorder, label)
    if prof is not None:
        failures += _report_profile(args, prof, result, label)
    if rt.metrics is not None:
        _report_metrics(args, result, rt.metrics, rec["wall_s"])
    if args.sanitize:
        _print_sanitizer(rec["sanitizer"])
    base = None
    if args.chaos:
        base = execute(replace(spec, fault_plan=None, chaos_seed=0,
                               sanitize=False, metrics=False))
        hot = {k: v for k, v in rec["chaos_stats"].items() if v}
        print(f"chaos: fault-free {base['virtual_s'] * 1e3:.3f} ms -> under "
              f"{args.chaos!r} {rec['virtual_s'] * 1e3:.3f} ms (virtual); {hot}")
    verdict = _verdict(rec, base, args.chaos, args.expect_races)
    if args.chaos and not verdict:
        print("  recovered bit-identically")
    if args.expect_races and not verdict:
        print("expected races: found — OK")
    failures += verdict
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 2 if failures else 0


def _sweep(args) -> int:
    from repro.bench.figures import registered_programs
    from repro.fleet import default_cache, run_many

    apps = args.apps or sorted(registered_programs())
    grid = [(app, plan) for app in apps for plan in [None, *args.plans]]
    fleet = run_many([_spec(args, app, plan) for app, plan in grid],
                     jobs=args.jobs, cache=default_cache(args.no_cache))
    print(fleet.summary())
    for rec in fleet.failures():
        print(f"FAIL: {rec['workload']} crashed: {rec.get('error')}", file=sys.stderr)
    if fleet.failures():
        return 2

    records = dict(zip(grid, fleet.records))
    width = max(len(a) for a in apps)
    ok = True
    for app, plan in grid:
        rec = records[(app, plan)]
        base = records[(app, None)]
        failures = _verdict(rec, base, plan)
        if plan is None:
            print(f"{app:<{width}}  fault-free: {rec['virtual_s'] * 1e3:9.3f} ms  "
                  f"({rec['msgs_sent']} msgs)")
        else:
            cs = rec["chaos_stats"]
            print(f"{'':<{width}}  {plan:<14} {rec['virtual_s'] * 1e3:9.3f} ms  "
                  f"lost={_lost(cs):<3} retx={cs.get('retransmits', 0):<3} "
                  f"dup={cs.get('dup_suppressed', 0):<3} "
                  f"reseq={cs.get('reorder_buffered', 0):<3} "
                  f"{'FAIL' if failures else 'ok'}")
        san = rec.get("sanitizer")
        if san is not None and (plan is None or not san["ok"]):
            _print_sanitizer(san, indent=" " * (width + 2))
        for f in failures:
            ok = False
            print(f"{'':<{width}}    FAIL: {f}", file=sys.stderr)
    if not ok:
        print("sweep: verdicts failed", file=sys.stderr)
        return 2
    print("sweep: every run " + ("recovered bit-identically within the retransmit "
                                 "bound" if args.plans else "passed"))
    return 0


def _diff(args) -> int:
    from repro.trace.diff import diff_traces
    from repro.trace.export import read_jsonl

    result = diff_traces(read_jsonl(args.a), read_jsonl(args.b))
    print(result.summary(label_a=args.a, label_b=args.b))
    return 0 if result.identical else 1


def main(argv: Optional[List[str]] = None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:  # usage error (1) or --help (0)
            return exc.code
        rc = args.handler(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader went away (``| head``): silence the interpreter's
        # final flush and exit the way a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
