"""Contracts of the ``python -m repro`` entry point shared by every
subcommand: input validation, the broken-pipe exit, the CLI/fleet
equivalence of one :class:`~repro.fleet.RunSpec`, and the sweep verdict.

The per-observer flags are tested beside their subsystems
(``test_trace_cli.py``, ``test_profile_cli.py``, ``test_sanitizer_cli.py``,
``test_chaos_cli.py``, ``test_trace_diff.py``, ``test_metrics_regress.py``).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

REPO = Path(__file__).resolve().parent.parent


def _popen(*args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stderr=subprocess.PIPE, text=True, env=env, cwd=REPO, **kw,
    )


def test_closed_stdout_exits_without_traceback():
    # the reader goes away after one line, as `| head -1` does
    proc = _popen("run", "--list", stdout=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    # ... and deterministically: a pipe whose reader is gone before the
    # first write
    r, w = os.pipe()
    os.close(r)
    proc = _popen("run", "--list", stdout=w)
    os.close(w)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


BAD_INPUTS = {
    "unknown-app": (["run", "nosuchapp"], "unknown app"),
    "unknown-exec": (["run", "helmholtz", "--exec", "9Thread-9CPU"], "unknown exec config"),
    "unknown-plan": (["run", "helmholtz", "--chaos", "no-such-plan"], "unknown fault plan"),
    "unknown-category": (["run", "helmholtz", "--trace", "t.json", "--cats",
                          "dsm.page,bogus"], "unknown categories"),
    "zero-nodes": (["run", "helmholtz", "--nodes", "0"], "must be >= 1"),
    "non-integer-nodes": (["run", "helmholtz", "--nodes", "two"], "not an integer"),
    "zero-ring": (["run", "helmholtz", "--trace", "t.json", "--ring", "0"], "must be >= 1"),
    "check-without-profile": (["run", "helmholtz", "--check"], "--check needs --profile"),
    "expect-races-without-sanitize": (["run", "racy-ww", "--expect-races"],
                                      "--expect-races needs --sanitize"),
    "json-without-observer": (["run", "helmholtz", "--json", "x.json"],
                              "--json needs exactly one"),
    "sweep-unknown-app": (["sweep", "--apps", "helmholtz,nosuchapp"], "unknown app"),
    "sweep-unknown-plan": (["sweep", "--plans", "drop,no-such-plan"], "unknown fault plan"),
    "sweep-zero-nodes": (["sweep", "--nodes", "0"], "must be >= 1"),
}


@pytest.mark.parametrize("argv, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_rejected_before_any_run(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in lines[0], captured.err


def test_run_matches_fleet_record_of_same_spec(capsys):
    from repro.bench.figures import registered_programs
    from repro.fleet import RunSpec, execute

    assert main(["run", "md", "--nodes", "2", "--mode", "sdsm"]) == 0
    out = capsys.readouterr().out
    rec = execute(RunSpec.from_entry("md", registered_programs()["md"],
                                     n_nodes=2, mode="sdsm"))
    elapsed = re.search(r"elapsed ([0-9.]+) ms \(virtual\)", out).group(1)
    digest = re.search(r"value digest: ([0-9a-f]+)", out).group(1)
    assert elapsed == f"{rec['virtual_s'] * 1e3:.3f}"
    assert digest == rec["value_digest"]


def test_sanitizer_sweep_verdict_on_fleet_records(capsys):
    assert main(["sweep", "--nodes", "2", "--apps", "md", "--sanitize", "--jobs", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: OK" in out and "sweep: every run passed" in out
    assert main(["sweep", "--nodes", "2", "--apps", "racy-ww", "--sanitize",
                 "--jobs", "1", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert "races with earlier" in captured.out
    assert "sanitizer reported" in captured.err
