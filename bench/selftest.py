"""Show that each output check of the benchmark fails on corrupted output.

Usage (from the root of a nucrec checkout):

    python3 bench/selftest.py [--seed N]

Runs the traced reference round of every workload once, as bench/run.py
does, and requires the clean outputs to pass every check.  Then, for each
check, it corrupts one output or captured value and requires that check to
report a failure.  It also requires the metric names that bench/run.py
prints to be exactly those that BENCHMARK.json lists.  Exits 0 when all of
this holds, 1 otherwise.
"""

import argparse
import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import run
from workloads import WORKLOADS


def _set(rows, call, row, key, value):
    """Set one value in both the CSV row and the traced call it came from."""
    rows[row][key] = repr(value)
    call["value"] = value


def _estimate(trace, k):
    return [c for span, c in trace["calls"] if span == "cmsv.estimate_cmsv"][k]


def _below_sigma_min(rows, trace):
    est = _estimate(trace, 2)  # the min estimate of the m=512 row
    smin, _ = checks.extreme_singular_values(trace["operators"][est["op"]])
    _set(rows, est, 1, "rho_min", 0.99 * smin)


def _rho_order(rows, trace):
    lo, hi = _estimate(trace, 0), _estimate(trace, 1)
    _set(rows, hi, 0, "rho_max", 0.5 * lo["value"])


def _witness_infeasible(rows, trace):
    est = _estimate(trace, 0)
    est["witness"] = np.eye(*est["witness"].shape) / np.sqrt(min(est["witness"].shape))


def _value_off(rows, trace):
    est = _estimate(trace, 0)
    _set(rows, est, 0, "rho_min", est["value"] * (1 + 1e-6))


def _csv_ulp(rows, trace):
    rows[0]["rho_min"] = repr(float(np.nextafter(float(rows[0]["rho_min"]), 2.0)))


def _out_of_band(rows, trace):
    rows[1]["rho_min"] = "0.4"


def _solve(trace, k=0):
    return [c for span, c in trace["calls"] if span.startswith("solvers.solve_")][k]


def _mbp_infeasible(rows, trace):
    sol = _solve(trace)
    x_true = trace["scenarios"][sol["scenario"]]["x_true"]
    sol["x_hat"] = sol["x_hat"] + 0.2 * x_true / np.linalg.norm(x_true)


def _scale_x_hat(factor):
    def corrupt(rows, trace):
        sol = _solve(trace)
        sol["x_hat"] = factor * sol["x_hat"]

    return corrupt


def _above_true_nuclear(rows, trace):
    sol = _solve(trace)
    nuclear = lambda x: np.linalg.svd(x, compute_uv=False).sum()
    x_true = trace["scenarios"][sol["scenario"]]["x_true"]
    sol["x_hat"] = sol["x_hat"] * (1.01 * nuclear(x_true) / nuclear(sol["x_hat"]))


def _not_converged(rows, trace):
    rows[0]["converged"] = "False"


def _iterations_plus_one(rows, trace):
    rows[0]["iterations"] = str(int(rows[0]["iterations"]) + 1)


def _quantile_off(rows, trace):
    rows[-1]["value"] = repr(float(rows[-1]["value"]) * (1 + 1e-6))


def _rho_times(factor):
    def corrupt(rows, trace):
        rho = [c for span, c in trace["calls"] if span == "cmsv.brute_force_cmsv"][0]
        smin, _ = checks.extreme_singular_values(trace["operators"][rho["op"]])
        rho["value"] = factor * smin
        for row in rows:
            if "rho_hat" in row:
                row["rho_hat"] = repr(rho["value"])

    return corrupt


def _delta_off(rows, trace):
    rows[0]["delta_hat"] = repr(float(rows[0]["delta_hat"]) + 1e-3)


def _error_above_bound(rows, trace):
    k = max(range(len(rows)), key=lambda i: float(rows[i]["epsilon"]))
    sol = _solve(trace, k)
    rho = [c for span, c in trace["calls"] if span == "cmsv.brute_force_cmsv"][0]
    smin, _ = checks.extreme_singular_values(trace["operators"][rho["op"]])
    x_true = trace["scenarios"][sol["scenario"]]["x_true"]
    d = np.ones_like(x_true) / np.sqrt(x_true.size)
    sol["x_hat"] = x_true + 1.1 * 2 * float(rows[k]["epsilon"]) / smin * d
    rows[k]["realized_error"] = repr(float(np.linalg.norm(sol["x_hat"] - x_true)))


# (workload, invocation, check tag, corruption)
CORRUPTIONS = (
    ("concentration", "montecarlo", "rho_in_sigma_range", _below_sigma_min),
    ("concentration", "montecarlo", "rho_order", _rho_order),
    ("concentration", "montecarlo", "witness_feasible", _witness_infeasible),
    ("concentration", "montecarlo", "value_recomputed", _value_off),
    ("concentration", "montecarlo", "csv_matches_trace", _csv_ulp),
    ("concentration", "montecarlo", "band", _out_of_band),
    ("recovery", "noise-cal", "noise_cal_quantiles", _quantile_off),
    ("recovery", "mbp", "mbp_feasible", _mbp_infeasible),
    ("recovery", "mbp", "mbp_nuclear", _above_true_nuclear),
    ("recovery", "mbp", "converged", _not_converged),
    ("recovery", "mbp", "csv_matches_trace", _iterations_plus_one),
    ("recovery", "mds", "mds_feasible", _scale_x_hat(0.5)),
    ("recovery", "mlasso", "mlasso_kkt", _scale_x_hat(1.01)),
    ("oracle", "bounds", "rho_hat_exact", _rho_times(1.05)),
    ("oracle", "bounds", "delta_hat_exact", _delta_off),
    ("oracle", "bounds", "mbp_error_bound", _error_above_bound),
    ("oracle", "recover", "rho_one_sided", _rho_times(0.99)),
)


def _expect_fail(label, tag, failures):
    hit = any(t == tag for t, _ in failures)
    print(f"{'ok  ' if hit else 'MISS'} {label}: [{tag}] " + ("fails" if hit else f"did not fail; got {failures}"))
    return hit


def metric_names_match(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    per_layer = set(run.layer_metrics([], 0.0))
    ok = True
    for key, names in (("end_to_end", set(run.END_TO_END)), ("per_layer", per_layer)):
        listed = {m["name"] for m in spec[key]}
        if listed != names:
            print(f"MISS BENCHMARK.json {key}: only listed {sorted(listed - names)}, only printed {sorted(names - listed)}")
            ok = False
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    ok = metric_names_match(root)
    for workload in WORKLOADS:
        r = run.Run(root, workload, args.seed, run.BENCH_DIR / "runs" / f"selftest-{workload}")
        _, traces = r.reference()
        clean = r.failed == 0 and len(traces) == len(r.invocations)
        print(f"{'ok  ' if clean else 'MISS'} {workload}: clean reference outputs pass every check")
        ok &= clean
        by_name = {inv.name: inv for inv in r.invocations}
        for corrupted_workload, name, tag, corrupt in CORRUPTIONS:
            if corrupted_workload != workload:
                continue
            inv = by_name[name]
            rows = checks.read_csv(r.ref_dir / name / checks.CSV_NAME[inv.subcommand])
            trace = copy.deepcopy(traces[name])
            corrupt(rows, trace)
            failures = checks.check_rows(inv.subcommand, rows, trace)
            ok &= _expect_fail(f"{workload}/{name}", tag, failures)
        # A flipped byte in one output file, against the reference round.
        inv = r.invocations[0]
        flipped = r.dir / "flipped"
        shutil.copytree(r.ref_dir / inv.name, flipped)
        path = flipped / checks.CSV_NAME[inv.subcommand]
        data = bytearray(path.read_bytes())
        data[-2] ^= 0x01
        path.write_bytes(bytes(data))
        ok &= _expect_fail(f"{workload}/{inv.name} flipped byte", "bytes_identical", checks.same_bytes(flipped, r.ref_dir / inv.name))
        if workload == "recovery":
            rows = checks.read_csv(r.ref_dir / "mbp" / "recover.csv")
            _iterations_plus_one(rows, None)
            failures = checks.check_iterations(rows, traces["mbp"])
            ok &= _expect_fail("recovery/mbp iterations + 1", "iterations_total", failures)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
