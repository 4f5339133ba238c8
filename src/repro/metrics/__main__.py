"""Metrics CLI: exposition formats and the bench watchdog.

Usage::

    python -m repro run cg --metrics --json cg.metrics.json     # scorecard + dump
    python -m repro.metrics export cg.metrics.json               # Prometheus
    python -m repro.metrics export cg.metrics.json --csv cg.csv --chrome cg.trace.json
    python -m repro.metrics regress                  # BENCH_parade.json watchdog
    python -m repro.metrics regress --strict --wall-tol 0.2
    python -m repro.metrics smoke                    # CI gate (see below)

``export`` re-emits a JSON dump as Prometheus text / CSV / Chrome
counters; ``regress`` diffs two sections of the perf report with
noise-aware tolerances and exits 1 on regression; ``smoke`` is the CI
gate — watchdog self-check, metered-vs-unmetered bit-identity, and an
export round-trip on a tiny workload, exit 2 on any failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.metrics import export as mexport
from repro.metrics import regress as mregress

DEFAULT_REPORT = "BENCH_parade.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="live metrics: Prometheus/JSON/CSV/Chrome exposition and "
        "the noise-aware bench watchdog",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_exp = sub.add_parser("export", help="re-emit a JSON metrics dump")
    p_exp.add_argument("dump", help="metrics dump written by `python -m repro run --metrics --json`")
    p_exp.add_argument("--prom", default=None, help="write Prometheus text here (default: stdout)")
    p_exp.add_argument("--csv", default=None, help="write series,time,value CSV")
    p_exp.add_argument("--chrome", default=None, help='write ph:"C" counter Chrome trace')
    p_exp.add_argument(
        "--check", action="store_true",
        help="verify the Prometheus output parses and the dump round-trips; exit 2 on failure",
    )

    p_reg = sub.add_parser("regress", help="noise-aware diff of two perf-report sections")
    p_reg.add_argument("report", nargs="?", default=DEFAULT_REPORT,
                       help=f"perf report path (default {DEFAULT_REPORT})")
    p_reg.add_argument("--base", default="baseline", help="section to compare from")
    p_reg.add_argument("--cur", default="current", help="section to compare to")
    p_reg.add_argument("--wall-tol", type=float, default=mregress.DEFAULT_WALL_TOL,
                       help="wall-time slowdown band (default 0.30 = +30%%)")
    p_reg.add_argument("--phase-tol", type=float, default=mregress.DEFAULT_PHASE_TOL,
                       help="max absolute phase-fraction drift (default 0.05)")
    p_reg.add_argument("--vt-tol", type=float, default=0.0,
                       help="virtual-time relative tolerance (default 0 = exact)")
    p_reg.add_argument("--wall-floor", type=float, default=mregress.DEFAULT_WALL_FLOOR,
                       help="wall times below this (s) are noise, never banded "
                       "(default 0.25)")
    p_reg.add_argument("--strict", action="store_true",
                       help="event/msg/byte count mismatches fail instead of warn")
    p_reg.add_argument("--selfcheck", action="store_true",
                       help="run the watchdog self-check instead of a comparison")

    p_smoke = sub.add_parser("smoke", help="CI gate: self-check + bit-identity + round-trip")
    p_smoke.add_argument("--nodes", type=int, default=2, help="cluster size (default 2)")
    p_smoke.add_argument(
        "--jobs", type=int, default=None,
        help="fleet worker processes for the act-2 runs (default: PARADE_JOBS "
        "env or cpu count); the verdict is bit-identical for any value",
    )
    return parser


def _cmd_export(args) -> int:
    try:
        dump = mexport.load_dump(args.dump)
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics dump {args.dump!r}: {exc}", file=sys.stderr)
        return 1
    prom = mexport.to_prometheus(dump)
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prom)
        print(f"prom  : {len(prom.splitlines())} lines -> {args.prom}")
    if args.csv:
        csv = mexport.to_csv(dump)
        with open(args.csv, "w") as fh:
            fh.write(csv)
        print(f"csv   : {len(csv.splitlines()) - 1} rows -> {args.csv}")
    if args.chrome:
        n = mexport.write_chrome(dump, args.chrome)
        print(f"chrome: {n} records -> {args.chrome}")
    if args.check:
        problems = []
        try:
            parsed = mexport.parse_prometheus(prom)
            if not parsed:
                problems.append("Prometheus output parsed to zero samples")
        except ValueError as exc:
            problems.append(f"Prometheus output does not parse: {exc}")
        if json.loads(json.dumps(dump)) != dump:
            problems.append("dump does not round-trip through JSON")
        if problems:
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
            return 2
        print(f"check : ok ({len(parsed)} exposition samples)")
    if not (args.prom or args.csv or args.chrome or args.check):
        print(prom, end="")
    return 0


def _cmd_regress(args) -> int:
    if args.selfcheck:
        fault = mregress.selfcheck(verbose=True)
        if fault:
            print(f"SELF-CHECK FAILED: {fault}", file=sys.stderr)
            return 2
        print("watchdog self-check: ok")
        return 0
    try:
        with open(args.report) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read perf report {args.report!r}: {exc}", file=sys.stderr)
        return 1
    verdict = mregress.compare_sections(
        report, base_name=args.base, cur_name=args.cur,
        wall_tol=args.wall_tol, phase_tol=args.phase_tol,
        vt_tol=args.vt_tol, wall_floor=args.wall_floor, strict=args.strict,
    )
    print(verdict.render(), end="")
    return 0 if verdict.ok else 1


def _cmd_smoke(args) -> int:
    """The CI gate, in three acts (exit 2 on the first failure):

    1. watchdog self-check — identical synthetic sections pass, a seeded
       regression fails on every axis, meta mismatches are refused;
    2. bit-identity — the tiny workload metered and unmetered must agree
       on virtual time and every deterministic run statistic (the two
       runs are independent, so they fan out across ``--jobs`` fleet
       worker processes);
    3. export round-trip — the metered dump survives JSON write/load,
       its Prometheus rendering parses, CSV and Chrome are non-empty.
    """
    import os
    import tempfile

    from repro.fleet import RunSpec, run_many

    def fail(msg: str) -> int:
        print(f"SMOKE FAILED: {msg}", file=sys.stderr)
        return 2

    fault = mregress.selfcheck()
    if fault:
        return fail(f"watchdog self-check: {fault}")
    print("smoke 1/3: watchdog self-check ok")

    common = dict(
        factory=("repro.apps.helmholtz", "make_program"),
        factory_kwargs={"n": 24, "m": 24, "max_iters": 2},
        n_nodes=args.nodes,
        pool_bytes=1 << 21,
    )
    specs = [
        RunSpec(workload="helmholtz-plain", **common),
        # observe_timed: the metered run IS the measurement — its stats
        # must come from the run with the sampler attached, or the
        # comparison below would check an unmetered run against itself
        RunSpec(workload="helmholtz-metered", metrics=True, observe_timed=True,
                **common),
    ]
    fleet = run_many(specs, jobs=args.jobs)
    for rec in fleet.failures():
        return fail(f"{rec['workload']} crashed: {rec.get('error')}")
    plain, metered = fleet.records
    if plain["virtual_s"] != metered["virtual_s"]:
        return fail(f"virtual time moved under metering: "
                    f"{plain['virtual_s']!r} != {metered['virtual_s']!r}")
    for group in ("cluster_stats", "dsm_stats"):
        a, b = plain[group], metered[group]
        diff = {k for k in set(a) | set(b) if a.get(k) != b.get(k)}
        if diff:
            return fail(f"{group} moved under metering: {sorted(diff)}")
    n_samples = metered["metrics"]["n_samples"]
    if n_samples == 0:
        return fail("sampler took no samples on the smoke workload")
    print(f"smoke 2/3: bit-identity ok (vt {metered['virtual_s'] * 1e3:.3f} ms, "
          f"{n_samples} samples)")

    dump = dict(metered["metrics"]["dump"])
    dump["meta"] = {"app": "helmholtz-smoke", "nodes": args.nodes}
    prom = mexport.to_prometheus(dump)
    parsed = mexport.parse_prometheus(prom)
    if not parsed:
        return fail("Prometheus exposition parsed to zero samples")
    with tempfile.TemporaryDirectory(prefix="metrics-smoke-") as tmp:
        path = os.path.join(tmp, "dump.json")
        mexport.write_dump(dump, path)
        if mexport.load_dump(path) != json.loads(json.dumps(dump)):
            return fail("dump does not round-trip through write_dump/load_dump")
        chrome = os.path.join(tmp, "trace.json")
        n_chrome = mexport.write_chrome(dump, chrome)
    n_csv = len(mexport.to_csv(dump).splitlines()) - 1
    if n_chrome == 0 or n_csv == 0:
        return fail(f"empty export (chrome={n_chrome}, csv={n_csv})")
    print(f"smoke 3/3: export round-trip ok ({len(parsed)} prom samples, "
          f"{n_csv} csv rows, {n_chrome} chrome records)")
    print("metrics smoke: all gates passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return {
        "export": _cmd_export,
        "regress": _cmd_regress,
        "smoke": _cmd_smoke,
    }[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
