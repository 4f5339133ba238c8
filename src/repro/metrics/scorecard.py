"""Per-workload scorecards: one row summarising a metered run.

A scorecard condenses one :class:`~repro.runtime.results.RunResult` plus
its attached :class:`~repro.metrics.sampler.Metrics` into the dozen
numbers that tell you where a run went: virtual time, event and message
volume, fault pressure, and the latency percentiles of the two
synchronisation hot spots the paper's evaluation revolves around (lock
wait, Fig. 7; barrier epoch latency, Figs. 8-11).

Rendering goes through the shared table/quantile helpers in
:mod:`repro.util.tables` — the same ones the profiler report uses, so
the two tools cannot disagree on what "p99" or a microsecond column
means.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.sampler import BARRIER_EPOCH, LOCK_WAIT, Metrics
from repro.util.tables import fmt_us, render_table

#: latency percentiles reported per scorecard
SCORE_PERCENTILES = (50, 90, 99)


def _series_peak(mx: Metrics, name: str) -> float:
    s = mx.series.get(name)
    return max(s[1]) if s and s[1] else 0.0


def build_scorecard(name: str, result, mx: Metrics, wall_s: Optional[float] = None) -> Dict:
    """One scorecard row (plain dict, JSON-serialisable)."""
    lock = mx.histogram_percentiles(LOCK_WAIT, SCORE_PERCENTILES)
    barrier = mx.histogram_percentiles(BARRIER_EPOCH, SCORE_PERCENTILES)
    card = {
        "workload": name,
        "virtual_s": result.elapsed,
        "events": int(result.cluster_stats.get("events_processed", 0)),
        "msgs": int(result.cluster_stats.get("total_messages", 0)),
        "bytes": int(result.cluster_stats.get("total_bytes", 0)),
        "faults": int(
            result.dsm_stats.get("read_faults", 0)
            + result.dsm_stats.get("write_faults", 0)
        ),
        "barriers": int(result.dsm_stats.get("barriers", 0)),
        "lock_wait": lock,
        "barrier_epoch": barrier,
        "peak_queue_depth": _series_peak(mx, "sim/queue_depth"),
        "peak_inflight_msgs": _series_peak(mx, "net/inflight_msgs"),
        "samples": mx.n_samples,
    }
    if wall_s is not None:
        card["wall_s"] = wall_s
    return card


def render_scorecards(cards: List[Dict]) -> str:
    """The ``python -m repro run --metrics`` table."""
    headers = [
        "workload", "vt(ms)", "events", "msgs", "faults",
        "lock p50(us)", "lock p99(us)", "bar p50(us)", "bar p99(us)",
        "peak q", "inflight", "samples",
    ]
    rows = []
    for c in cards:
        rows.append([
            c["workload"],
            f"{c['virtual_s'] * 1e3:.3f}",
            c["events"],
            c["msgs"],
            c["faults"],
            fmt_us(c["lock_wait"]["p50"]),
            fmt_us(c["lock_wait"]["p99"]),
            fmt_us(c["barrier_epoch"]["p50"]),
            fmt_us(c["barrier_epoch"]["p99"]),
            int(c["peak_queue_depth"]),
            int(c["peak_inflight_msgs"]),
            c["samples"],
        ])
    return "\n".join(render_table(headers, rows, align="<")) + "\n"
