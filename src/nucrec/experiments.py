"""Experiment pipelines behind the CLI subcommands.

Each runner takes a validated config dict and is one call into :func:`_run`:
it executes seeded trials (optionally in parallel over a worker pool) and
writes plot-ready CSV plus a JSON summary.  Outputs are deterministic
functions of (config, seed): per-trial seeds are derived from the master seed
and the trial index, and aggregation is an ordered reduction by trial index.
A run with a solve that did not converge writes both files, then raises
:class:`SolverDidNotConverge`.  Every bound verdict, in ``recover`` and in
the bounds ledger, comes from :func:`nucrec.bounds.verify_bound`.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import nucrec
from nucrec.linalg import frobenius_norm, numerical_rank
from nucrec.operators import make_scenario
from nucrec.ensembles import EnsembleSpec, draw_operator, draw_low_rank_signal, derive_seed
from nucrec.solvers import SolverConfig, solve_mbp, solve_mds, solve_mlasso
from nucrec.cmsv import ORACLE_MAX_ENTRIES, estimate_cmsv, brute_force_cmsv
from nucrec.bounds import (
    verify_bound,
    noise_operator_bound,
    bound_mbp_mric,
    expected_subscript,
    BoundInapplicable,
)


class SolverDidNotConverge(RuntimeError):
    """At least one trial failed to converge; partial results were written."""


def config_hash(config):
    """Stable hash of the canonical JSON form of the config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# The estimation tau when a cmsv or montecarlo config sets none.
DEFAULT_TAU = 2.0


def _solver_config(config):
    return SolverConfig(**config.get("solver", {}))


def _ensemble_spec(config, seed, **overrides):
    return EnsembleSpec(**{**config["ensemble"], "seed": seed, **overrides})


def _write_csv(path, columns, rows, meta):
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={meta['config_hash']} version={meta['version']}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta(config):
    return {"config_hash": config_hash(config), "version": nucrec.__version__}


def _map_trials(worker, args_list, jobs):
    if jobs > 1 and len(args_list) > 1:
        import multiprocessing  # here, so that a serial run never imports it
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(worker, args_list)
    return [worker(a) for a in args_list]


def _run(config, out_dir, jobs, formats, stem, columns, trial, summarize, args=None):
    """The one runner skeleton: map ``trial`` over ``args`` in order (by
    default ``(config, t)`` for each trial index t), flatten the row lists
    it returns in trial order, then write ``<stem>.csv`` (the ``columns`` of
    every row) and ``<stem>.json`` (the meta fields plus
    ``summarize(config, rows)``).  ``trial`` is module-level so that a
    worker pool can pickle it.  Once both files are written, any row whose
    ``converged`` is False raises :class:`SolverDidNotConverge`.
    """
    if args is None:
        args = [(config, t) for t in range(config["trials"])]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for trial_rows in _map_trials(trial, args, jobs) for row in trial_rows]
    meta = _meta(config)
    if "csv" in formats:
        _write_csv(out / f"{stem}.csv", columns, [[row[c] for c in columns] for row in rows], meta)
    summary = {**meta, **summarize(config, rows)}
    if "json" in formats:
        _write_json(out / f"{stem}.json", summary)
    failed = sum(not row.get("converged", True) for row in rows)
    if failed:
        raise SolverDidNotConverge(f"{failed} of {len(rows)} solves did not converge")
    return summary


# --- recover ---------------------------------------------------------------


def _recover_trial(args):
    config, trial = args
    seed = config["seed"]
    op_seed = derive_seed(seed, trial * 4 + 0)
    sig_seed = derive_seed(seed, trial * 4 + 1)
    noise_seed = derive_seed(seed, trial * 4 + 2)

    spec = _ensemble_spec(config, op_seed)
    op = draw_operator(spec)
    sig = config["signal"]
    x = draw_low_rank_signal(spec.n1, spec.n2, sig["r"], sig.get("scale", 1.0), sig_seed)
    noise = config.get("noise", {"kind": "none"})
    scn = make_scenario(
        op,
        x,
        noise_kind=noise["kind"],
        epsilon=noise.get("epsilon", 0.0),
        sigma=noise.get("sigma", 0.0),
        seed=noise_seed,
    )
    cfg = _solver_config(config)
    alg = config["algorithm"]
    name = alg["name"]
    if name == "mbp":
        params = {"epsilon": alg.get("epsilon", noise.get("epsilon", 0.0))}
        res = solve_mbp(scn, params["epsilon"], cfg)
    elif name == "mds":
        params = {"lambda": alg["lambda"]}
        res = solve_mds(scn, alg["lambda"], cfg)
    elif name == "mlasso":
        params = {"mu": alg["mu"], "kappa": alg.get("kappa", 0.5)}
        res = solve_mlasso(scn, alg["mu"], cfg)
    else:
        raise ValueError(f"unknown algorithm {name!r}")

    realized = frobenius_norm(np.asarray(res.x_hat) - x)
    rel_err = realized / max(frobenius_norm(x), 1e-300)

    report = None
    if spec.n1 * spec.n2 <= ORACLE_MAX_ENTRIES:
        r = max(1, numerical_rank(x))
        tau = expected_subscript(name, r, params.get("kappa", 0.0), min(spec.n1, spec.n2))
        rho = brute_force_cmsv(op, tau, "min")
        try:
            report = verify_bound(scn, res, name, params, rho)
        except BoundInapplicable:
            report = None

    row = {
        "trial": trial,
        "algorithm": name,
        "converged": res.converged,
        "feasible": res.feasible,
        "iterations": res.iterations,
        "realized_error": realized,
        "relative_error": rel_err,
        "objective": res.objective,
        "bound_value": report.bound_value if report else "",
        "holds": report.holds if report else "",
        "slack_ratio": report.slack_ratio if report else "",
        "tau_H": report.cone_check["tau_H"] if report else "",
        "cone_satisfied": report.cone_check["satisfied"] if report else "",
    }
    return [row]


RECOVER_COLUMNS = (
    "trial",
    "algorithm",
    "converged",
    "feasible",
    "iterations",
    "realized_error",
    "relative_error",
    "objective",
    "bound_value",
    "holds",
    "slack_ratio",
    "tau_H",
    "cone_satisfied",
)


def _recover_summary(config, rows):
    return {
        "kind": "recover",
        "trials": config["trials"],
        "converged": sum(1 for r in rows if r["converged"]),
        "mean_relative_error": float(np.mean([r["relative_error"] for r in rows])),
        "rows": rows,
    }


def run_recover(config, out_dir, jobs=1, formats=("csv", "json")):
    return _run(config, out_dir, jobs, formats, "recover", RECOVER_COLUMNS, _recover_trial, _recover_summary)


# --- cmsv ------------------------------------------------------------------


def _cmsv_trial(args):
    config, trial = args
    seed = config["seed"]
    est = config.get("estimation", {})
    spec = _ensemble_spec(config, derive_seed(seed, trial * 2))
    op = draw_operator(spec)
    tau = est.get("tau", DEFAULT_TAU)
    starts = est.get("starts", 32)
    lo = estimate_cmsv(op, tau, "min", starts=starts, seed=derive_seed(seed, trial * 2 + 1))
    hi = estimate_cmsv(op, tau, "max", starts=starts, seed=derive_seed(seed, trial * 2 + 1))
    return [{"trial": trial, "tau": tau, "rho_min": lo.value, "rho_max": hi.value}]


CMSV_COLUMNS = ("trial", "tau", "rho_min", "rho_max")


def _cmsv_summary(config, rows):
    return {
        "kind": "cmsv",
        "trials": config["trials"],
        "mean_rho_min": float(np.mean([r["rho_min"] for r in rows])),
        "mean_rho_max": float(np.mean([r["rho_max"] for r in rows])),
        "rows": rows,
    }


def run_cmsv(config, out_dir, jobs=1, formats=("csv", "json")):
    return _run(config, out_dir, jobs, formats, "cmsv", CMSV_COLUMNS, _cmsv_trial, _cmsv_summary)


# --- montecarlo ------------------------------------------------------------


def _m_sweep(config):
    return config.get("estimation", {}).get("m_sweep", [config["ensemble"]["m"]])


def _epsilon_band(config):
    return config.get("estimation", {}).get("epsilon_band", 0.35)


def _montecarlo_trial(args):
    config, m, trial = args
    seed = config["seed"]
    est = config.get("estimation", {})
    tau = est.get("tau", DEFAULT_TAU)
    starts = est.get("starts", 8)
    # normalized operator A/sqrt(m) regardless of the ensemble's own flag
    spec = _ensemble_spec(config, derive_seed(seed, m * 100_003 + trial * 2), m=m, normalize=True)
    op = draw_operator(spec)
    est_seed = derive_seed(seed, m * 100_003 + trial * 2 + 1)
    lo = estimate_cmsv(op, tau, "min", starts=starts, seed=est_seed)
    hi = estimate_cmsv(op, tau, "max", starts=starts, seed=est_seed)
    band = _epsilon_band(config)
    in_band = bool(1.0 - band <= lo.value and hi.value <= 1.0 + band)
    return [{"m": m, "trial": trial, "rho_min": lo.value, "rho_max": hi.value, "in_band": in_band}]


MC_COLUMNS = ("m", "trial", "rho_min", "rho_max", "in_band")


def _montecarlo_summary(config, rows):
    m_sweep = _m_sweep(config)
    per_m = {}
    for m in m_sweep:
        sub = [row for row in rows if row["m"] == m]
        per_m[str(m)] = {
            "fraction_in_band": float(np.mean([row["in_band"] for row in sub])),
            "mean_rho_min": float(np.mean([row["rho_min"] for row in sub])),
            "mean_rho_max": float(np.mean([row["rho_max"] for row in sub])),
            "std_rho_min": float(np.std([row["rho_min"] for row in sub])),
            "std_rho_max": float(np.std([row["rho_max"] for row in sub])),
        }
    return {
        "kind": "montecarlo",
        "trials": config["trials"],
        "epsilon_band": _epsilon_band(config),
        "m_sweep": list(m_sweep),
        "per_m": per_m,
    }


def run_montecarlo_cmsv(config, out_dir, jobs=1, formats=("csv", "json")):
    args = [(config, m, t) for m in _m_sweep(config) for t in range(config["trials"])]
    return _run(
        config, out_dir, jobs, formats, "montecarlo", MC_COLUMNS, _montecarlo_trial, _montecarlo_summary, args
    )


# --- bounds ledger ---------------------------------------------------------

LEDGER_COLUMNS = (
    "epsilon",
    "trial",
    "converged",
    "realized_error",
    "cmsv_bound",
    "cmsv_holds",
    "mric_bound",
    "mric_applicable",
    "rho_hat",
    "delta_hat",
)

EPSILON_GRID = (0.0, 0.05, 0.1, 0.2)


def _bounds_trial(args):
    """One operator and signal; one ledger row per epsilon, in grid order.
    At oracle size n_min <= 3 < 4r, so both constraints are vacuous: rho is
    the exact sigma_min and delta_hat follows from it and ``op.gram_norm``.
    """
    config, trial = args
    e = config["ensemble"]
    seed = config["seed"]
    sig = config["signal"]
    cfg = _solver_config(config)
    r = sig["r"]
    tau = expected_subscript("mbp", r, 0.0, min(e["n1"], e["n2"]))

    spec = _ensemble_spec(config, derive_seed(seed, trial * 8))
    op = draw_operator(spec)
    x = draw_low_rank_signal(e["n1"], e["n2"], r, sig.get("scale", 1.0), derive_seed(seed, trial * 8 + 1))
    rho = brute_force_cmsv(op, tau, "min")
    delta_hat = max(abs(1.0 - rho.value**2), abs(op.gram_norm - 1.0))
    rows = []
    for eps in config.get("epsilon_grid", EPSILON_GRID):
        scn = make_scenario(
            op, x, noise_kind="bounded" if eps > 0 else "none", epsilon=eps,
            seed=derive_seed(seed, trial * 8 + 5),
        )
        res = solve_mbp(scn, eps, cfg)
        realized = frobenius_norm(np.asarray(res.x_hat) - x)
        try:
            report = verify_bound(scn, res, "mbp", {"epsilon": eps}, rho)
            cmsv_bound, cmsv_holds = report.bound_value, report.holds
        except BoundInapplicable:
            cmsv_bound, cmsv_holds = "", ""
        try:
            mric_bound, applicable = bound_mbp_mric(eps, delta_hat), True
        except BoundInapplicable:
            mric_bound, applicable = "inapplicable", False
        rows.append(
            {
                "epsilon": eps,
                "trial": trial,
                "converged": res.converged,
                "realized_error": realized,
                "cmsv_bound": cmsv_bound,
                "cmsv_holds": cmsv_holds,
                "mric_bound": mric_bound,
                "mric_applicable": applicable,
                "rho_hat": rho.value,
                "delta_hat": delta_hat,
            }
        )
    return rows


def _bounds_summary(config, rows):
    grid = config.get("epsilon_grid", EPSILON_GRID)
    return {"kind": "bounds", "trials": config["trials"], "epsilon_grid": list(grid), "rows": rows}


def run_bounds_ledger(config, out_dir, jobs=1, formats=("csv", "json")):
    """Realized mBP error versus both bound families on an oracle-sized
    instance, over a grid of bounded-noise levels; one trial per operator,
    with exact rho and delta_hat (see :func:`_bounds_trial`).
    """
    e = config["ensemble"]
    if e["n1"] * e["n2"] > ORACLE_MAX_ENTRIES:
        raise ValueError(f"bounds ledger requires an oracle-sized instance (n1*n2 <= {ORACLE_MAX_ENTRIES})")
    return _run(config, out_dir, jobs, formats, "bounds", LEDGER_COLUMNS, _bounds_trial, _bounds_summary)


# --- noise calibration -----------------------------------------------------

NOISECAL_COLUMNS = ("quantile", "value")


def _noise_cal_trial(config):
    """The one trial: one operator, one noise_operator_bound call.  Each
    quantile row also carries the record's threshold and exceedance, which
    the summary reports."""
    seed = config["seed"]
    spec = _ensemble_spec(config, derive_seed(seed, 0))
    sigma = config.get("noise", {}).get("sigma", 1.0)
    record = noise_operator_bound(
        draw_operator(spec), sigma, spec.n2, config["trials"], derive_seed(seed, 1), c=config.get("c", 8.0)
    )
    extra = {"threshold": record["threshold"], "exceed_fraction": record["exceed_fraction"]}
    return [{"quantile": q, "value": v, **extra} for q, v in sorted(record["quantiles"].items())]


def _noise_cal_summary(config, rows):
    quantiles = {row["quantile"]: row["value"] for row in rows}
    lam_pick = quantiles["0.95"]
    return {
        "kind": "noise-calibration",
        "sigma": config.get("noise", {}).get("sigma", 1.0),
        "c": config.get("c", 8.0),
        "threshold": rows[0]["threshold"],
        "exceed_fraction": rows[0]["exceed_fraction"],
        "quantiles": quantiles,
        "suggested_lambda": lam_pick,
        "suggested_mu": 2.0 * lam_pick,
    }


def run_noise_calibration(config, out_dir, jobs=1, formats=("csv", "json")):
    return _run(
        config, out_dir, jobs, formats, "noise_cal", NOISECAL_COLUMNS, _noise_cal_trial, _noise_cal_summary,
        args=[config],
    )


RUNNERS = {
    "recover": run_recover,
    "cmsv": run_cmsv,
    "montecarlo": run_montecarlo_cmsv,
    "bounds": run_bounds_ledger,
    "noise-calibration": run_noise_calibration,
}

