"""Trace JSONL round-trip and ``python -m repro diff`` tests."""

from __future__ import annotations

from repro.__main__ import main
from repro.apps import helmholtz
from repro.runtime import ParadeRuntime
from repro.trace import TraceRecorder
from repro.trace.diff import diff_traces
from repro.trace.export import read_jsonl, write_jsonl
from repro.trace.events import TraceEvent


def _record(mode="parade"):
    rt = ParadeRuntime(n_nodes=2, mode=mode, pool_bytes=1 << 20)
    rec = TraceRecorder(rt.sim, capacity=1 << 16)
    rt.run(helmholtz.make_program(n=24, m=24, max_iters=2))
    return rec.events


def test_jsonl_round_trip(tmp_path):
    events = _record()
    path = tmp_path / "run.jsonl"
    n = write_jsonl(events, str(path))
    assert n == len(events) > 0
    loaded = read_jsonl(str(path))
    assert [e.as_dict() for e in loaded] == [e.as_dict() for e in events]


def test_identical_runs_diff_clean():
    a, b = _record(), _record()
    result = diff_traces(a, b)
    assert result.identical
    assert result.first_divergence is None
    assert "identical event streams" in result.summary()


def test_divergent_translations_report_first_divergence_and_deltas():
    a, b = _record("parade"), _record("sdsm")
    result = diff_traces(a, b)
    assert not result.identical
    assert result.first_divergence is not None
    assert result.divergent_fields
    assert result.event_a is not None and result.event_b is not None
    # the conventional translation does strictly more DSM work: the
    # lock protocol appears, and fetch bytes grow
    deltas = result.type_deltas
    acq = deltas.get(("dsm.lock", "acquire"), (0, 0, 0, 0))
    assert acq[0] == 0 and acq[1] > 0
    fetch = deltas.get(("dsm.page", "fetch"), (0, 0, 0, 0))
    assert fetch[3] > fetch[2]
    summary = result.summary("parade", "sdsm")
    assert "first divergence" in summary
    assert "per-event-type deltas" in summary


def test_truncated_prefix_reported_as_early_end():
    a = _record()
    result = diff_traces(a, a[: len(a) // 2])
    assert not result.identical
    assert result.first_divergence is None
    assert "ends early" in result.summary()


def test_diff_detects_single_field_change():
    a = _record()
    b = list(a)
    ev = b[5]
    b[5] = TraceEvent(
        ts=ev.ts, cat=ev.cat, name=ev.name, node=ev.node,
        tid="imposter", dur=ev.dur, args=ev.args, ph=ev.ph,
    )
    result = diff_traces(a, b)
    assert result.first_divergence == 5
    assert result.divergent_fields == ["tid"]


def test_cli_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    events = _record()
    write_jsonl(events, str(a))
    write_jsonl(events, str(b))
    assert main(["diff", str(a), str(b)]) == 0
    write_jsonl(_record("sdsm"), str(b))
    assert main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "first divergence" in out


def test_trace_main_dispatches_diff_subcommand(tmp_path):
    jsonl = tmp_path / "run.jsonl"
    rc = main(
        [
            "run", "helmholtz", "--nodes", "2",
            "--trace", str(tmp_path / "run.json"),
            "--jsonl", str(jsonl),
        ]
    )
    assert rc == 0
    assert jsonl.exists()
    assert main(["diff", str(jsonl), str(jsonl)]) == 0
