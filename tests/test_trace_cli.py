"""Smoke tests for ``python -m repro run --trace`` (see docs/TRACING.md).

These run the module as a subprocess the way a user would, so the CLI
entry point can never silently rot.  In-process tests of main() cover
flag handling.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.__main__ import main

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "run", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_cli_help():
    proc = _run_cli("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout.lower()
    assert "perfetto" in proc.stdout.lower() or "chrome" in proc.stdout.lower()


def test_cli_tiny_traced_run(tmp_path):
    out = tmp_path / "trace.json"
    csv = tmp_path / "trace.csv"
    proc = _run_cli("helmholtz", "--nodes", "2", "--trace", str(out), "--csv", str(csv))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "protocol check: OK" in proc.stdout
    doc = json.load(open(out))
    evs = doc["traceEvents"]
    assert evs
    for e in evs:
        assert "ph" in e and "pid" in e and "name" in e
        if e["ph"] != "M":
            assert "ts" in e and "tid" in e
    assert csv.exists() and csv.read_text().startswith("ts,dur,cat,name")


# in-process flag coverage (fast; no simulation)
def test_cli_list(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for app in ("helmholtz", "ep", "cg", "md"):
        assert app in out


def test_cli_unknown_app(capsys):
    assert main(["run", "nosuchapp"]) == 1
    assert "unknown app" in capsys.readouterr().err


def test_cli_unknown_exec(capsys):
    assert main(["run", "helmholtz", "--exec", "9Thread-9CPU"]) == 1
    assert "unknown exec config" in capsys.readouterr().err


def test_cli_unknown_category(capsys):
    assert main(["run", "helmholtz", "--trace", "t.json", "--cats", "dsm.page,bogus"]) == 1
    assert "unknown categories" in capsys.readouterr().err


def test_cli_in_process_run_with_category_filter(tmp_path, capsys):
    out = tmp_path / "t.json"
    rc = main(["run", "helmholtz", "--nodes", "2", "--trace", str(out),
               "--cats", "dsm.page,dsm.barrier"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "protocol check: OK" in stdout
    doc = json.load(open(out))
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] != "M"}
    assert cats <= {"dsm.page", "dsm.barrier"}
