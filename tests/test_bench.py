"""Smoke test of the benchmark harness: one short oracle run end to end.

No timing is asserted; the run must finish, pass its own output checks and
report no failed CLI invocation.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path
from unittest.mock import MagicMock

from nucrec.cli import _check_runnable, load_config

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_oracle_workload_runs_clean():
    argv = [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO_ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_configs_pass_the_cli_checks(tmp_path):
    # only the oracle workload runs above; a config the CLI rejects would
    # otherwise show only as a failed invocation of the benchmark
    (tmp_path / "noise-cal").mkdir()
    calibration = {"suggested_lambda": 0.01, "suggested_mu": 0.02}  # stands in for noise-cal's output
    (tmp_path / "noise-cal" / "noise_cal.json").write_text(json.dumps(calibration))
    for workload, invocations in _load_bench("workloads").WORKLOADS.items():
        for inv in invocations:
            path = tmp_path / f"{workload}-{inv.name}.json"
            path.write_text(json.dumps(inv.make_config(100, tmp_path)))
            _check_runnable(load_config(str(path)), inv.subcommand)


class _Arguments(dict):
    """Bound arguments that record which names a capture reads."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def __missing__(self, key):
        self.read.add(key)
        return MagicMock()


def test_tracer_names_resolve():
    # renaming a timed function or a captured parameter breaks the traced
    # reference round of every workload; this finds it without running one
    tracer = _load_bench("tracer")
    for mod_name, fns in tracer.TIMED.items():
        module = importlib.import_module("nucrec." + mod_name)
        for fn_name in fns:
            assert callable(getattr(module, fn_name, None)), f"nucrec.{mod_name}.{fn_name}"
    for span, capture in tracer._CAPTURES.items():
        mod_name, fn_name = span.split(".")
        fn = getattr(importlib.import_module("nucrec." + mod_name), fn_name)
        args = _Arguments()
        capture(MagicMock(), args, MagicMock())
        params = inspect.signature(fn).parameters
        missing = args.read - set(params)
        assert not missing, f"{span} has no parameter {sorted(missing)}"
