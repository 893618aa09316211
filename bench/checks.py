"""Output checks computed apart from the program.

A check reads what the CLI wrote and the values captured in the traced
reference round (see tracer.py), and recomputes what it tests with numpy
from the explicit m x (n1*n2) operator matrix captured at the draw_operator
call.  It rejects a result that breaks a property the method must have.
Every check returns a list of failures, each a (tag, message) pair; an
empty list means the output passed.  The tags name the checks, so that the
self-test can show each one fails on corrupted output.

The program's own verdict columns (``cmsv_holds``, ``holds``, ``in_band``,
``feasible``) are never read.
"""

import csv
import math

import numpy as np

from workloads import BAND_M, BAND_SLACK

REL = 1e-9  # a value recomputed in double precision, against the reported one
SOLVER_TOL = 1e-6  # constraint slack: the solvers stop at residuals of 1e-8
KKT_TOL = 1e-4  # relative subgradient residual of a converged FISTA iterate
DELTA_TOL = 1e-6  # alternating eigen-solves at full rank, against an SVD
ORACLE_SLACK = 1.02  # brute force at tau = n_min, against the exact sigma_min


class Failures(list):
    def expect(self, ok, tag, message):
        if not ok:
            self.append((tag, message))


def read_csv(path):
    """Rows of a CLI CSV as dicts of strings, after the config-hash comment."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ValueError(f"{path}: missing the config-hash comment line")
    return list(csv.DictReader(lines[1:]))


def extreme_singular_values(a):
    s = np.linalg.svd(a, compute_uv=False)
    smin = s[-1] if a.shape[0] >= a.shape[1] else 0.0
    return float(smin), float(s[0])


def _close(x, y, rel=REL):
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def _calls(trace, name):
    return [fields for span, fields in trace["calls"] if span == name]


def _operator(trace, index, f):
    f.expect(index >= 0, "csv_matches_trace", "operator was not captured at draw_operator")
    return trace["operators"][index] if index >= 0 else None


CSV_NAME = {
    "montecarlo": "montecarlo.csv",
    "cmsv": "cmsv.csv",
    "noise-cal": "noise_cal.csv",
    "recover": "recover.csv",
    "bounds": "bounds.csv",
}


def check_reference(subcommand, out_dir, trace):
    """Checks of one reference-round invocation against its trace."""
    return check_rows(subcommand, read_csv(out_dir / CSV_NAME[subcommand]), trace)


def check_rows(subcommand, rows, trace):
    if subcommand == "montecarlo":
        return _check_extremal(rows, trace) + check_band(rows)
    if subcommand == "cmsv":
        return _check_extremal(rows, trace)
    if subcommand == "noise-cal":
        return _check_noise_cal(rows, trace)
    if subcommand == "recover":
        return _check_recover(rows, trace)
    if subcommand == "bounds":
        return _check_bounds(rows, trace)
    raise ValueError(f"no checks for subcommand {subcommand!r}")


def check_timed(subcommand, out_dir, ref_dir):
    """Checks of one timed-round invocation: the same bytes as the
    reference round at the same seed, and what the CSV alone can show."""
    f = same_bytes(out_dir, ref_dir)
    csv_path = out_dir / CSV_NAME[subcommand]
    if subcommand == "montecarlo" and csv_path.is_file():
        f += check_band(read_csv(csv_path))
    return f


def same_bytes(out_dir, ref_dir):
    f = Failures()
    names = sorted(p.name for p in ref_dir.iterdir()) if ref_dir.is_dir() else []
    got = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    f.expect(names == got, "bytes_identical", f"files {got} differ from the reference's {names}")
    for name in names:
        if name in got:
            same = (out_dir / name).read_bytes() == (ref_dir / name).read_bytes()
            f.expect(same, "bytes_identical", f"{name} differs from the reference round at the same seed")
    return f


def check_band(rows, n_entries=64):
    """Davidson-Szarek band at m=512, from the CSV alone."""
    f = Failures()
    half = math.sqrt(n_entries / BAND_M) + BAND_SLACK
    for row in rows:
        if int(row["m"]) == BAND_M:
            lo, hi = float(row["rho_min"]), float(row["rho_max"])
            f.expect(
                1.0 - half <= lo and hi <= 1.0 + half,
                "band",
                f"trial {row['trial']}: [{lo}, {hi}] leaves 1 +- {half:.4f}",
            )
    return f


def check_iterations(rows, trace):
    """Sum of the CSV's iterations column against the traced solver results."""
    f = Failures()
    csv_total = sum(int(row["iterations"]) for row in rows)
    traced = sum(c["iterations"] for span, c in trace["calls"] if span.startswith("solvers.solve_"))
    f.expect(csv_total == traced, "iterations_total", f"CSV iterations {csv_total} != traced {traced}")
    return f


def _check_extremal(rows, trace):
    """Rows of (rho_min, rho_max) from estimate_cmsv, min then max per row."""
    f = Failures()
    ests = _calls(trace, "cmsv.estimate_cmsv")
    f.expect(len(ests) == 2 * len(rows), "csv_matches_trace", f"{len(rows)} rows but {len(ests)} estimates")
    for row, lo, hi in zip(rows, ests[0::2], ests[1::2]):
        tag = f"trial {row['trial']}" + (f" m={row['m']}" if "m" in row else "")
        rho_min, rho_max = float(row["rho_min"]), float(row["rho_max"])
        f.expect(
            lo["direction"] == "min" and hi["direction"] == "max" and rho_min == lo["value"] and rho_max == hi["value"],
            "csv_matches_trace",
            f"{tag}: CSV ({rho_min}, {rho_max}) is not the traced (min, max) pair",
        )
        a = _operator(trace, lo["op"], f)
        if a is None:
            continue
        if "m" in row:
            f.expect(a.shape[0] == int(row["m"]), "csv_matches_trace", f"{tag}: operator has {a.shape[0]} rows")
        smin, smax = extreme_singular_values(a)
        f.expect(0.0 < rho_min <= rho_max, "rho_order", f"{tag}: need 0 < {rho_min} <= {rho_max}")
        f.expect(
            smin * (1 - REL) <= rho_min and rho_max <= smax * (1 + REL),
            "rho_in_sigma_range",
            f"{tag}: [{rho_min}, {rho_max}] leaves [sigma_min, sigma_max] = [{smin}, {smax}]",
        )
        for est in (lo, hi):
            w = est["witness"]
            s = np.linalg.svd(w, compute_uv=False)
            f.expect(
                abs(np.linalg.norm(w) - 1.0) <= 1e-9 and s.sum() ** 2 / np.dot(s, s) <= est["tau"] * (1 + 1e-9),
                "witness_feasible",
                f"{tag}: {est['direction']} witness off the unit sphere or has tau(W) > {est['tau']}",
            )
            value = float(np.linalg.norm(a @ w.reshape(-1)))
            f.expect(
                _close(value, est["value"]),
                "value_recomputed",
                f"{tag}: reported {est['direction']} {est['value']} but ||A vec(W)|| = {value}",
            )
    return f


def _check_noise_cal(rows, trace):
    f = Failures()
    (cal,) = _calls(trace, "bounds.noise_operator_bound")
    values = cal["values"]
    f.expect(
        values.size > 0 and values[0] > 0 and bool(np.all(np.diff(values) >= 0)),
        "noise_cal_quantiles",
        "traced ||A*(w)||_op draws are not positive and sorted",
    )
    for row in rows:
        q, v = float(row["quantile"]), float(row["value"])
        f.expect(
            _close(v, float(np.quantile(values, q))),
            "noise_cal_quantiles",
            f"quantile {q}: CSV {v} != recomputed {np.quantile(values, q)}",
        )
    return f


def _kkt_residual(corr, x_hat, mu):
    """Relative distance of A*(y - A x_hat) from mu times the nuclear-norm
    subdifferential at x_hat: mu U V^T on the singular subspaces of x_hat,
    operator norm at most mu off them."""
    u, s, vt = np.linalg.svd(x_hat)
    r = int(np.count_nonzero(s > 1e-9 * s[0])) if s[0] > 0 else 0
    u, vt = u[:, :r], vt[:r]
    on = max(
        float(np.linalg.norm(u.T @ corr - mu * vt)) if r else 0.0,
        float(np.linalg.norm(corr @ vt.T - mu * u)) if r else 0.0,
    )
    top = float(np.linalg.norm(corr, 2))
    return max(on / mu, top / mu - 1.0)


def _check_recover(rows, trace):
    f = Failures()
    solves = [(span.rsplit("_", 1)[1], c) for span, c in trace["calls"] if span.startswith("solvers.solve_")]
    rhos = _calls(trace, "cmsv.brute_force_cmsv")
    f.expect(len(solves) == len(rows), "csv_matches_trace", f"{len(rows)} rows but {len(solves)} solves")
    for k, (row, (alg, sol)) in enumerate(zip(rows, solves)):
        tag = f"trial {row['trial']} {alg}"
        scn = trace["scenarios"][sol["scenario"]] if sol["scenario"] >= 0 else None
        f.expect(scn is not None, "csv_matches_trace", f"{tag}: scenario was not captured")
        a = _operator(trace, scn["op"], f) if scn else None
        if a is None:
            continue
        x_hat, x_true, y = sol["x_hat"], scn["x_true"], scn["y"]
        resid = y - a @ x_hat.reshape(-1)
        corr = (a.T @ resid).reshape(x_hat.shape)
        nuc_hat = float(np.linalg.svd(x_hat, compute_uv=False).sum())
        realized = float(np.linalg.norm(x_hat - x_true))
        f.expect(row["converged"] == "True", "converged", f"{tag}: did not converge")
        f.expect(
            row["algorithm"] == alg
            and int(row["iterations"]) == sol["iterations"]
            and _close(float(row["realized_error"]), realized),
            "csv_matches_trace",
            f"{tag}: CSV row does not match the traced solve (||x_hat - X|| = {realized})",
        )
        if alg == "mbp":
            eps = sol["param"]
            f.expect(
                float(np.linalg.norm(resid)) <= eps + SOLVER_TOL,
                "mbp_feasible",
                f"{tag}: ||y - A x_hat|| = {np.linalg.norm(resid)} > epsilon {eps}",
            )
            nuc_true = float(np.linalg.svd(x_true, compute_uv=False).sum())
            f.expect(
                nuc_hat <= nuc_true * (1 + SOLVER_TOL),
                "mbp_nuclear",
                f"{tag}: ||x_hat||_* = {nuc_hat} > ||X_true||_* = {nuc_true}",
            )
            f.expect(_close(float(row["objective"]), nuc_hat, 1e-7), "csv_matches_trace", f"{tag}: objective")
        elif alg == "mds":
            top = float(np.linalg.norm(corr, 2))
            f.expect(
                top <= sol["param"] + SOLVER_TOL,
                "mds_feasible",
                f"{tag}: ||A*(y - A x_hat)||_op = {top} > lambda {sol['param']}",
            )
        else:
            kkt = _kkt_residual(corr, x_hat, sol["param"])
            f.expect(kkt <= KKT_TOL, "mlasso_kkt", f"{tag}: KKT residual {kkt:.3e} > {KKT_TOL}")
        if row["bound_value"]:
            # Oracle size: tau = n_min, so the brute-forced rho bounds sigma_min(A)
            # from above.  How close it comes is not checked here: at m=12 it
            # lands up to 9% above on some seeds (see CHANGES.md).
            smin, _ = extreme_singular_values(a)
            rho = rhos[k]["value"] if k < len(rhos) else float("nan")
            eps = sol["param"]
            f.expect(
                smin * (1 - REL) <= rho,
                "rho_one_sided",
                f"{tag}: brute-force rho {rho} below sigma_min = {smin}",
            )
            f.expect(_close(float(row["bound_value"]), 2 * eps / rho, 1e-12), "csv_matches_trace", f"{tag}: bound_value")
            f.expect(
                realized <= (2 * eps + SOLVER_TOL) / smin,
                "mbp_error_bound",
                f"{tag}: error {realized} > 2 epsilon / sigma_min = {2 * eps / smin}",
            )
    return f


def _check_bounds(rows, trace):
    f = Failures()
    rhos = _calls(trace, "cmsv.brute_force_cmsv")
    solves = _calls(trace, "solvers.solve_mbp")
    f.expect(len(solves) == len(rows), "csv_matches_trace", f"{len(rows)} rows but {len(solves)} solves")
    trials = sorted({int(row["trial"]) for row in rows})
    f.expect(len(rhos) == len(trials), "csv_matches_trace", f"{len(trials)} trials but {len(rhos)} rho estimates")
    for row, sol in zip(rows, solves):
        t, eps = int(row["trial"]), float(row["epsilon"])
        tag = f"trial {t} epsilon {eps}"
        rho = rhos[t] if t < len(rhos) else None
        a = _operator(trace, rho["op"], f) if rho else None
        if a is None:
            continue
        scn = trace["scenarios"][sol["scenario"]]
        smin, smax = extreme_singular_values(a)
        realized = float(np.linalg.norm(sol["x_hat"] - scn["x_true"]))
        f.expect(
            scn["op"] == rho["op"] and float(row["rho_hat"]) == rho["value"] and _close(float(row["realized_error"]), realized),
            "csv_matches_trace",
            f"{tag}: CSV row does not match the traced rho and solve",
        )
        # tau = min(8r, n_min) = n_min: the constraint is vacuous.
        f.expect(
            smin * (1 - REL) <= rho["value"] <= ORACLE_SLACK * smin,
            "rho_hat_exact",
            f"{tag}: rho_hat {rho['value']} outside [sigma_min, {ORACLE_SLACK} sigma_min], sigma_min = {smin}",
        )
        # rank 4r >= n_min: the rank constraint is vacuous too.
        delta = max(abs(1.0 - smin**2), abs(smax**2 - 1.0))
        f.expect(
            abs(float(row["delta_hat"]) - delta) <= DELTA_TOL * max(1.0, delta),
            "delta_hat_exact",
            f"{tag}: delta_hat {row['delta_hat']} != {delta} from the SVD",
        )
        if eps > 0:
            f.expect(
                realized <= (2 * eps + SOLVER_TOL) / smin,
                "mbp_error_bound",
                f"{tag}: error {realized} > 2 epsilon / sigma_min = {2 * eps / smin}",
            )
    return f
