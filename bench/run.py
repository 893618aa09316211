"""Benchmark the nucrec CLI end to end, one workload per run.

Usage (from the root of a checkout that holds src/nucrec):

    python3 bench/run.py --workload {concentration,recovery,oracle} \
        --seed N --seconds S --trace {0,1}

A run has three parts.

1. Reference round: every CLI invocation of the workload runs once under
   bench/tracer.py, which records spans around the public functions of each
   module and captures the operators, scenarios and results.  checks.py
   checks each output against them.
2. Set-up: one fresh interpreter imports nucrec.cli and validates the
   workload's configs with load_config, without entering a runner.
3. Timed rounds: the same invocations, untraced, as `python -m nucrec.cli`,
   repeated for --seconds.  Each output must be byte-identical to the
   reference round's.

Every child runs with PYTHONPATH=src and BLAS pinned to one thread in its
own environment.  An operation is one CLI invocation; it fails on a nonzero
exit code or a failed check.  The last line of standard output is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Run outputs and traces go to bench/runs/<workload>/.
"""

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracer import SPAN_NAMES
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_CODE = "import sys\nimport nucrec.cli\nfor path in sys.argv[1:]:\n    nucrec.cli.load_config(path)\n"
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SOLVERS = ("solve_mbp", "solve_mds", "solve_mlasso")
# Per-layer names without a .calls metric: the runners run once per invocation.
NO_CALLS = tuple(name for name in SPAN_NAMES if name.startswith("experiments."))


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv, env, cwd, log):
    """Run one child to its end; wall time, CPU time and peak RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Run:
    def __init__(self, root, workload, seed, run_dir):
        self.root = root
        self.invocations = WORKLOADS[workload]
        self.seed = seed
        self.dir = run_dir
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        self.env = child_env(root)
        self.ref_dir = self.dir / "reference"
        self.timed_dir = self.dir / "timed"
        self.configs = {}
        self.attempted = 0
        self.failed = 0

    def config_path(self, inv):
        """Writes the config on first use; later rounds reuse the file."""
        if inv.name not in self.configs:
            path = self.dir / "configs" / f"{inv.name}.json"
            path.write_text(json.dumps(inv.make_config(self.seed, self.ref_dir), indent=2))
            self.configs[inv.name] = path
        return self.configs[inv.name]

    def round(self, out_root, traced):
        shutil.rmtree(out_root, ignore_errors=True)
        out_root.mkdir(parents=True)
        children = []
        for inv in self.invocations:
            cli = [inv.subcommand, "--config", str(self.config_path(inv)), "--seed", str(self.seed)]
            cli += ["--jobs", "1", "--out", str(out_root / inv.name)]
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(out_root / f"{inv.name}.trace"), *cli]
            else:
                argv = [sys.executable, "-m", "nucrec.cli", *cli]
            children.append(spawn(argv, self.env, self.root, out_root / f"{inv.name}.log"))
        return children

    def count(self, inv, child, failures):
        self.attempted += 1
        if child.code != 0:
            failures = [("exit_code", f"exit code {child.code}, see its .log")] + list(failures)
        for tag, message in failures:
            print(f"FAIL {inv.name} [{tag}] {message}", file=sys.stderr)
        self.failed += bool(failures)

    def reference(self):
        children = self.round(self.ref_dir, traced=True)
        traces = {}
        for inv, child in zip(self.invocations, children):
            failures = []
            if child.code == 0:
                with open(self.ref_dir / f"{inv.name}.trace", "rb") as fh:
                    traces[inv.name] = pickle.load(fh)
                failures = checks.check_reference(inv.subcommand, self.ref_dir / inv.name, traces[inv.name])
            self.count(inv, child, failures)
        return children, traces

    def setup(self):
        argv = [sys.executable, "-c", SETUP_CODE, *(str(self.configs[inv.name]) for inv in self.invocations)]
        child = spawn(argv, self.env, self.root, self.dir / "setup.log")
        if child.code != 0:
            raise RuntimeError(f"set-up failed with exit code {child.code}, see {self.dir / 'setup.log'}")
        return child.wall

    def timed(self, seconds):
        rounds = []
        start = time.perf_counter()
        longest = 0.0
        while not rounds or time.perf_counter() - start + longest <= seconds:
            children = self.round(self.timed_dir, traced=False)
            for inv, child in zip(self.invocations, children):
                failures = []
                if child.code == 0:
                    failures = checks.check_timed(inv.subcommand, self.timed_dir / inv.name, self.ref_dir / inv.name)
                self.count(inv, child, failures)
            rounds.append(children)
            longest = max(longest, sum(c.wall for c in children))
        return rounds

    def cross_checks(self, traces):
        """Checks across independent paths: the timed run's CSVs against
        the traced solver results."""
        failures = []
        for inv in self.invocations:
            csv_path = self.timed_dir / inv.name / checks.CSV_NAME["recover"]
            if inv.subcommand == "recover" and inv.name in traces and csv_path.is_file():
                failures += checks.check_iterations(checks.read_csv(csv_path), traces[inv.name])
        for tag, message in failures:
            print(f"FAIL run [{tag}] {message}", file=sys.stderr)
        return not failures and len(traces) == len(self.invocations)


def layer_metrics(traces, overhead_s):
    """Per-layer metrics from the reference round's spans and captures."""
    n = len(SPAN_NAMES)
    calls, self_s, total_s = np.zeros(n), np.zeros(n), np.zeros(n)
    captured = {}
    for trace in traces:
        spans = trace["spans"]
        name = spans[:, 0].astype(int)
        dur = spans[:, 2] - spans[:, 1]
        parent = spans[:, 3].astype(int)
        child_s = np.zeros(len(spans))
        np.add.at(child_s, parent[parent >= 0], dur[parent >= 0])
        calls += np.bincount(name, minlength=n)
        self_s += np.bincount(name, weights=dur - child_s, minlength=n)
        total_s += np.bincount(name, weights=dur, minlength=n)
        for span, fields in trace["calls"]:
            captured.setdefault(span, []).append(fields)

    out = {}
    for i, name in enumerate(SPAN_NAMES):
        if name not in NO_CALLS:
            out[f"{name}.calls"] = (calls[i], "count")
        out[f"{name}.self_s"] = (self_s[i], "s")
    for solver in SOLVERS:
        name = f"solvers.{solver}"
        iters = sum(c["iterations"] for c in captured.get(name, ()))
        out[f"{name}.iterations"] = (iters, "count")
        out[f"{name}.us_per_iter"] = (1e6 * total_s[SPAN_NAMES.index(name)] / iters if iters else 0.0, "us")
    power = calls[SPAN_NAMES.index("solvers.power_iteration_gram_norm")]
    draws = calls[SPAN_NAMES.index("ensembles.draw_operator")]
    out["solvers.power_iteration_gram_norm.calls_per_operator"] = (power / draws if draws else 0.0, "ratio")
    ests = captured.get("cmsv.estimate_cmsv", ())
    starts = sum(len(e["per_start_values"]) for e in ests)
    useful = sum(sum(abs(v - e["value"]) <= 0.01 * abs(e["value"]) for v in e["per_start_values"]) for e in ests)
    out["cmsv.estimate_cmsv.useful_start_ratio"] = (useful / starts if starts else 0.0, "ratio")
    samples = sum(c["samples"] for c in captured.get("cmsv.brute_force_cmsv", ()))
    out["cmsv.brute_force_cmsv.samples"] = (samples, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "nucrec" / "cli.py").is_file():
        print(f"error: {root} holds no src/nucrec; run from the root of a nucrec checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, BENCH_DIR / "runs" / args.workload)
    ref_children, traces = run.reference()
    setup_s = run.setup()
    rounds = run.timed(args.seconds)
    correct = run.cross_checks(traces)

    # Each invocation's fastest timed repetition: on a shared machine the
    # slow ones measure the neighbours.  Summed over the workload's invocations.
    per_invocation = list(zip(*rounds))
    wall_s = sum(min(c.wall for c in reps) for reps in per_invocation)
    if args.trace:
        overhead_s = sum(c.wall for c in ref_children) - wall_s
        metrics = layer_metrics([traces[name] for name in sorted(traces)], overhead_s)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": sum(min(c.cpu for c in reps) for reps in per_invocation),
            "peak_rss_mb": max(c.rss_mb for reps in per_invocation for c in reps),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"{len(rounds)} timed rounds of {len(run.invocations)} invocations", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
