"""Smoke test of the benchmark harness: one short oracle run end to end.

No timing is asserted; the run must finish, pass its own output checks and
report no failed CLI invocation.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_oracle_workload_runs_clean():
    argv = [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0
