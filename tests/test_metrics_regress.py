"""Watchdog tests: noise-aware comparison semantics + CLI wiring."""

from __future__ import annotations

import copy
import json

import pytest

from repro.__main__ import main
from repro.metrics import regress
from repro.metrics.__main__ import main as metrics_main


def _report(seed: int = 0) -> dict:
    return regress.synthetic_report(seed)


def test_identical_sections_pass():
    verdict = regress.compare_sections(_report())
    assert verdict.ok and not verdict.problems
    assert "OK" in verdict.render()


def test_selfcheck_is_healthy():
    assert regress.selfcheck() is None
    assert regress.selfcheck(seed=42) is None


def test_virtual_time_drift_always_fails():
    rep = _report()
    rep["current"]["results"]["alpha"]["virtual_s"] *= 1.001  # 0.1% — tiny but real
    verdict = regress.compare_sections(rep)
    assert not verdict.ok
    assert any("virtual time drifted" in p for p in verdict.problems)
    # ...unless an explicit tolerance allows it
    assert regress.compare_sections(rep, vt_tol=0.01).ok


def test_wall_time_band_and_floor():
    rep = _report()
    rep["current"]["results"]["alpha"]["wall_s"] *= 1.8
    assert not regress.compare_sections(rep).ok
    # speedups never fail
    rep2 = _report()
    rep2["current"]["results"]["alpha"]["wall_s"] *= 0.2
    assert regress.compare_sections(rep2).ok
    # below the noise floor the band does not apply
    rep3 = _report()
    rep3["baseline"]["results"]["alpha"]["wall_s"] = 0.010
    rep3["current"]["results"]["alpha"]["wall_s"] = 0.019  # +90%, but 19 ms
    assert regress.compare_sections(rep3).ok


def test_phase_fraction_drift():
    rep = _report()
    ph = rep["current"]["results"]["beta"]["phases"]
    ph["compute"] -= 0.10
    ph["stall"] += 0.10
    verdict = regress.compare_sections(rep)
    assert not verdict.ok
    assert any("phase mix shifted" in p for p in verdict.problems)
    assert regress.compare_sections(rep, phase_tol=0.2).ok


def test_invariant_counts_warn_by_default_fail_when_strict():
    rep = _report()
    rep["current"]["results"]["alpha"]["events"] += 7
    loose = regress.compare_sections(rep)
    assert loose.ok and any("events changed" in w for w in loose.warnings)
    strict = regress.compare_sections(rep, strict=True)
    assert not strict.ok


def test_meta_mismatch_refuses_comparison():
    rep = _report()
    rep["current"]["meta"]["python"] = "2.7.18"
    verdict = regress.compare_sections(rep)
    assert not verdict.ok
    assert any("apples-to-oranges" in p for p in verdict.problems)
    # no per-workload noise on top of the refusal
    assert len(verdict.problems) == 1


def test_schema1_sections_without_meta_compare_with_warning():
    rep = _report()
    del rep["baseline"]["meta"]
    del rep["current"]["meta"]
    verdict = regress.compare_sections(rep)
    assert verdict.ok
    assert any("metadata missing" in w for w in verdict.warnings)


def test_missing_workload_and_section():
    rep = _report()
    del rep["current"]["results"]["alpha"]
    verdict = regress.compare_sections(rep)
    assert not verdict.ok and any("disappeared" in p for p in verdict.problems)
    verdict = regress.compare_sections({"schema": 2, "baseline": rep["baseline"]})
    assert not verdict.ok


def test_seeded_regression_has_all_three_axes():
    for seed in (0, 1, 99):
        bad = regress.seeded_regression(_report(seed), seed)
        text = " ".join(regress.compare_sections(bad).problems)
        assert "virtual time drifted" in text
        assert "wall time regressed" in text
        assert "phase mix shifted" in text


def test_run_meta_matches_watchdog_keys():
    """The bench harness fingerprint and the watchdog compare the same
    key set — a drift here silently disables the apples-to-oranges guard."""
    from repro.bench.perf import SCHEMA, run_meta

    assert SCHEMA == 2
    meta = run_meta(4, accel=True, smoke=False)
    assert set(regress.META_KEYS) == set(meta)
    assert meta["nodes"] == 4 and meta["accel"] is True


def test_load_report_backward_compatible(tmp_path):
    from repro.bench.perf import load_report

    old = tmp_path / "old.json"
    old.write_text(json.dumps({"baseline": {"results": {}}}))
    rep = load_report(str(old))
    assert rep["schema"] == 1  # schema-1 files normalise, not crash
    assert load_report(str(tmp_path / "missing.json")) == {}


# ----------------------------------------------------------------- CLI
def test_cli_regress_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_report()))
    assert metrics_main(["regress", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(regress.seeded_regression(_report(), 0)))
    assert metrics_main(["regress", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert metrics_main(["regress", str(tmp_path / "nope.json")]) == 1


def test_cli_regress_selfcheck():
    assert metrics_main(["regress", "--selfcheck"]) == 0


def test_cli_regress_strict_flag(tmp_path):
    rep = _report()
    rep["current"]["results"]["alpha"]["msgs_sent"] += 1
    path = tmp_path / "r.json"
    path.write_text(json.dumps(rep))
    assert metrics_main(["regress", str(path)]) == 0
    assert metrics_main(["regress", str(path), "--strict"]) == 1


def test_cli_run_and_export_round_trip(tmp_path, capsys):
    dump_path = tmp_path / "hh.metrics.json"
    assert main([
        "run", "helmholtz", "--nodes", "2", "--metrics", "--json", str(dump_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "helmholtz" in out and "vt(ms)" in out
    assert dump_path.exists()
    prom = tmp_path / "m.prom"
    csv = tmp_path / "m.csv"
    chrome = tmp_path / "m.trace.json"
    assert metrics_main([
        "export", str(dump_path), "--prom", str(prom), "--csv", str(csv),
        "--chrome", str(chrome), "--check",
    ]) == 0
    assert prom.exists() and csv.exists() and chrome.exists()
    from repro.metrics.export import parse_prometheus

    assert parse_prometheus(prom.read_text())


def test_cli_run_rejects_unknown_app(capsys):
    assert main(["run", "no-such-app", "--metrics"]) == 1


def test_cli_smoke_gate():
    assert metrics_main(["smoke"]) == 0
