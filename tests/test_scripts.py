"""Smoke test of scripts/run_all.py, a shim onto `fedanon attack --family
all`: run as a program, it exits with the CLI's codes."""

import os
import subprocess
import sys
from pathlib import Path

from test_cli import PROFILE_GAP, TINY, flags_of

ROOT = Path(__file__).resolve().parents[1]


def run_all(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "run_all.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_all_runs_fedanon_attack_with_its_exit_codes(tmp_path):
    done = run_all(*TINY, "--attack-methods", "chance", "--family", "reid_closed",
                   "--out-dir", str(tmp_path / "ok"))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "ok").iterdir()) == [
        "reid_closed_reid.csv", "reid_closed_utility.csv", "report_reid_closed.json"]

    done = run_all(*flags_of(PROFILE_GAP), "--family", "reid_closed", "--out-dir", str(tmp_path / "x"))
    assert (done.returncode, done.stderr) == (1, "error: background holds no examples of class 3\n")

    done = run_all("--epoch-ranges", "51", "--out-dir", str(tmp_path / "x"))
    assert done.returncode == 2 and "config error" in done.stderr and "'epoch_ranges'" in done.stderr
    assert not (tmp_path / "x").exists()
