"""Smoke tests of ``python -m repro run --chaos`` and ``python -m repro
sweep --plans`` (subprocess level)."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )


def test_list_plans():
    proc = _cli("run", "--list-plans")
    assert proc.returncode == 0, proc.stderr
    for name in ("clean", "drop", "dup", "reorder", "lossy-mix"):
        assert name in proc.stdout


def test_list_workloads():
    proc = _cli("run", "--list")
    assert proc.returncode == 0, proc.stderr
    assert "helmholtz" in proc.stdout


def test_single_run_recovers():
    proc = _cli("run", "helmholtz", "--chaos", "drop", "--nodes", "2", "--seed", "3")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "recovered bit-identically" in proc.stdout


def test_sweep_smoke():
    proc = _cli("sweep", "--nodes", "2", "--apps", "helmholtz",
                "--plans", "drop,dup")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "every run recovered bit-identically" in proc.stdout


def test_unknown_app_and_plan_fail_cleanly():
    proc = _cli("run", "no-such-app", "--chaos", "drop")
    assert proc.returncode == 1
    assert "unknown app" in proc.stderr
    proc = _cli("run", "helmholtz", "--chaos", "no-such-plan")
    assert proc.returncode == 1
    assert "unknown fault plan" in proc.stderr
