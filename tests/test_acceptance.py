"""Acceptance suite: twelve end-to-end checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success; pytest shows captured output for failures automatically).
"""

import json
import time

import numpy as np

from nucrec.cli import main as cli_main
from nucrec.cmsv import (
    brute_force_cmsv,
    estimate_cmsv,
    estimate_rcsv,
    mric_upper_bound,
)
from nucrec.ensembles import (
    EnsembleSpec,
    derive_seed,
    draw_operator,
    draw_low_rank_signal,
)
from nucrec.linalg import (
    decompose_error,
    lstar_rank,
    nuclear_norm,
    numerical_rank,
    prox_nuclear,
)
from nucrec.operators import MeasurementOperator, make_scenario, scale
from nucrec.solvers import solve_mbp, solve_mds, solve_mlasso
from oracles import prox_nuclear_grid_2x2


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _entry_basis_op(n):
    return MeasurementOperator(np.eye(n * n).reshape(n * n, n, n))


def test_criterion_01_lstar_rank_properties():
    rng = np.random.default_rng(101)
    checked = 0
    ok = True
    for _ in range(200):
        n1 = int(rng.integers(2, 17))
        n2 = int(rng.integers(2, 25))
        r = int(rng.integers(1, min(n1, n2) + 1))
        x = rng.standard_normal((n1, r)) @ rng.standard_normal((r, n2))
        ok &= lstar_rank(x) <= numerical_rank(x, 1e-9) + 1e-9
        checked += 1
    # constructed equal-singular-value matrices: equality to 1e-9
    for r in (1, 2, 4):
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = np.zeros(6)
        s[:r] = 1.7
        x = (q1 * s) @ q2[:, :6].T
        ok &= abs(lstar_rank(x) - r) <= 1e-9
    # rank one and identity
    x1 = np.outer(rng.standard_normal(5), rng.standard_normal(7))
    ok &= abs(lstar_rank(x1) - 1.0) <= 1e-9
    ok &= abs(lstar_rank(np.eye(9)) - 9.0) <= 1e-9
    _report(1, "lstar-rank-properties", ok, f"{checked} random + constructed cases")


def test_criterion_02_prox_grid_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((2, 2))
        t = float(rng.uniform(0.05, 1.0))
        got = prox_nuclear(x, t)
        oracle = prox_nuclear_grid_2x2(x, t, step=1e-3)
        worst = max(worst, float(np.linalg.norm(got - oracle)))
    ok = worst <= 2e-3
    _report(2, "prox-grid-oracle", ok, f"50 cases, worst deviation {worst:.2e}")


def test_criterion_03_error_decomposition():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(100):
        n1 = int(rng.integers(3, 9))
        n2 = int(rng.integers(3, 9))
        r = int(rng.integers(1, min(n1, n2) // 2 + 1))
        x = rng.standard_normal((n1, r)) @ rng.standard_normal((r, n2))
        h = rng.standard_normal((n1, n2))
        h0, hc = decompose_error(h, x)
        s = max(1.0, float(np.linalg.norm(h)))
        ok &= np.linalg.norm(h - (h0 + hc)) <= 1e-8 * s
        ok &= numerical_rank(h0, 1e-9) <= 2 * numerical_rank(x, 1e-9)
        ok &= np.linalg.norm(x @ hc.T) <= 1e-8 * s
        ok &= np.linalg.norm(x.T @ hc) <= 1e-8 * s
        lhs = np.linalg.norm(h) ** 2
        rhs = np.linalg.norm(h0) ** 2 + np.linalg.norm(hc) ** 2
        ok &= abs(lhs - rhs) <= 1e-8 * lhs
    _report(3, "error-decomposition", ok, "100 seeded (x, h) pairs")


def test_criterion_04_exact_recovery():
    hits = 0
    for trial in range(20):
        op = draw_operator(
            EnsembleSpec("gaussian", 8, 8, 48, seed=derive_seed(400, 2 * trial), normalize=True)
        )
        x = draw_low_rank_signal(8, 8, 1, 1.0, derive_seed(400, 2 * trial + 1))
        res = solve_mbp(make_scenario(op, x), 0.0)
        rel = np.linalg.norm(res.x_hat - x) / np.linalg.norm(x)
        hits += rel <= 1e-4
    ok = hits >= 18
    _report(4, "exact-recovery", ok, f"{hits}/20 trials with relative error <= 1e-4")


def test_criterion_05_cone_invariants():
    eps = 0.05
    kappa = 0.5
    checked = 0
    ok = True
    for trial in range(50):
        op = draw_operator(
            EnsembleSpec("gaussian", 6, 6, 30, seed=derive_seed(500, 3 * trial), normalize=True)
        )
        x = draw_low_rank_signal(6, 6, 1, 1.0, derive_seed(500, 3 * trial + 1))
        scn = make_scenario(op, x, "bounded", epsilon=eps, seed=derive_seed(500, 3 * trial + 2))
        solves = [
            ("mbp", solve_mbp(scn, eps), 1.0, 8.0),
            ("mds", solve_mds(scn, 0.1), 1.0, 8.0),
            ("mlasso", solve_mlasso(scn, 0.08), (1 + kappa) / (1 - kappa), 8.0 / (1 - kappa) ** 2),
        ]
        for _, res, factor, tau_limit in solves:
            ok &= res.converged
            h = res.x_hat - x
            if np.linalg.norm(h) <= 1e-12:
                continue
            h0, hc = decompose_error(h, x)
            ok &= nuclear_norm(hc) <= factor * nuclear_norm(h0) + 1e-6
            ok &= lstar_rank(h) <= tau_limit + 1e-6
            checked += 1
    _report(5, "cone-invariants", ok, f"{checked} converged solves checked")


def test_criterion_06_bound_with_oracle_rho():
    eps = 0.1
    hold = 0
    for trial in range(50):
        op = draw_operator(EnsembleSpec("gaussian", 2, 2, 4, seed=derive_seed(600, 4 * trial)))
        x = draw_low_rank_signal(2, 2, 1, 1.0, derive_seed(600, 4 * trial + 1))
        scn = make_scenario(op, x, "bounded", epsilon=eps, seed=derive_seed(600, 4 * trial + 2))
        res = solve_mbp(scn, eps)
        # constraint level min(8r, n_min) = 2 for rank one on 2x2
        rho = brute_force_cmsv(op, 2.0, "min", samples=100_000, seed=derive_seed(600, 4 * trial + 3))
        realized = np.linalg.norm(res.x_hat - x)
        hold += realized <= 2.0 * eps / rho.value * 1.05
    ok = hold >= 48  # 95% of 50, rounded up
    _report(6, "bound-with-oracle-rho", ok, f"{hold}/50 trials within 2*eps/rho * 1.05")


def test_criterion_07_solver_oracle_equivalence():
    rng = np.random.default_rng(707)
    op = _entry_basis_op(3)
    worst_lasso = worst_ds = 0.0
    for _ in range(20):
        y_mat = rng.standard_normal((3, 3))
        scn = make_scenario(op, y_mat)
        mu = float(rng.uniform(0.1, 1.0))
        lam = float(rng.uniform(0.1, 1.0))
        res_l = solve_mlasso(scn, mu)
        worst_lasso = max(worst_lasso, float(np.linalg.norm(res_l.x_hat - prox_nuclear(y_mat, mu))))
        res_d = solve_mds(scn, lam)
        worst_ds = max(worst_ds, float(np.linalg.norm(res_d.x_hat - prox_nuclear(y_mat, lam))))
    ok = worst_lasso <= 1e-6 and worst_ds <= 1e-6
    _report(
        7,
        "solver-oracle-equivalence",
        ok,
        f"20+20 cases, worst mLASSO {worst_lasso:.2e}, worst mDS {worst_ds:.2e}",
    )


def test_criterion_08_estimator_vs_brute_force():
    worst = 0.0
    for k in range(20):
        op = draw_operator(
            EnsembleSpec("gaussian", 2, 2, 3, seed=derive_seed(800, k), normalize=True)
        )
        for tau in (1.0, 1.3, 2.0):
            for direction in ("min", "max"):
                bf = brute_force_cmsv(op, tau, direction, samples=100_000, seed=derive_seed(801, k))
                est = estimate_cmsv(op, tau, direction, starts=32, seed=derive_seed(802, k))
                # relative gap with an absolute floor for near-null-space values
                gap = abs(bf.value - est.value) / max(bf.value, est.value, 0.02)
                worst = max(worst, gap)
    ok = worst <= 0.02
    _report(8, "estimator-vs-brute-force", ok, f"120 comparisons, worst gap {worst:.3%}")


def test_criterion_09_scaling_and_lipschitz():
    # exact scale equivariance under a power-of-two factor and a shared seed
    scaling_ok = True
    for k in range(10):
        op = draw_operator(EnsembleSpec("gaussian", 2, 2, 5, seed=derive_seed(900, k)))
        for direction in ("min", "max"):
            base = estimate_cmsv(op, 1.5, direction, starts=4, seed=k)
            doubled = estimate_cmsv(scale(op, 2.0), 1.5, direction, starts=4, seed=k)
            scaling_ok &= doubled.value == 2.0 * base.value

    # shared-sample brute force is Lipschitz in the operator
    lipschitz_ok = True
    rng = np.random.default_rng(901)
    for k in range(50):
        op_a = draw_operator(EnsembleSpec("gaussian", 2, 2, 4, seed=derive_seed(902, k)))
        pert = 0.1 * rng.standard_normal(op_a.matrices.shape)
        op_b = MeasurementOperator(op_a.matrices + pert)
        a = brute_force_cmsv(op_a, 1.5, "min", samples=10_000, seed=k, refine=False)
        b = brute_force_cmsv(op_b, 1.5, "min", samples=10_000, seed=k, refine=False)
        dist = np.linalg.norm((op_a.matrices - op_b.matrices).reshape(op_a.m, -1), 2)
        lipschitz_ok &= abs(a.value - b.value) <= dist + 1e-9
    ok = scaling_ok and lipschitz_ok
    _report(
        9,
        "scaling-and-lipschitz",
        ok,
        f"scaling exact: {scaling_ok}, 50 Lipschitz pairs: {lipschitz_ok}",
    )


def test_criterion_10_concentration_trend():
    m_sweep = (64, 128, 256, 512)
    summary = {}
    ok = True
    for kind in ("gaussian", "rademacher"):
        fracs = []
        for mi, m in enumerate(m_sweep):
            good = 0
            for trial in range(50):
                s = derive_seed(1000 + mi, trial)
                op = draw_operator(EnsembleSpec(kind, 8, 8, m, seed=s, normalize=True))
                lo = estimate_cmsv(op, 2.0, "min", starts=8, seed=derive_seed(s, 1))
                hi = estimate_cmsv(op, 2.0, "max", starts=8, seed=derive_seed(s, 1))
                good += 0.65 <= lo.value and hi.value <= 1.35
            fracs.append(good / 50)
        ok &= all(fracs[i + 1] >= fracs[i] for i in range(len(fracs) - 1))
        ok &= fracs[-1] >= 0.9
        summary[kind] = fracs
    _report(10, "concentration-trend", ok, f"in-band fractions {summary}")


def test_criterion_11_sandwich_and_mric():
    tol = 0.02
    ok = True
    for k in range(10):
        op = draw_operator(
            EnsembleSpec("gaussian", 3, 3, 20, seed=derive_seed(1100, k), normalize=True)
        )
        r = 2
        rho_lo = brute_force_cmsv(op, float(r), "min", samples=100_000, seed=derive_seed(1101, k))
        rho_hi = brute_force_cmsv(op, float(r), "max", samples=100_000, seed=derive_seed(1101, k))
        nu_lo = estimate_rcsv(op, r, "min", starts=8, seed=derive_seed(1102, k))
        nu_hi = estimate_rcsv(op, r, "max", starts=8, seed=derive_seed(1102, k))
        ok &= rho_lo.value <= nu_lo.value * (1 + tol) + 1e-9
        ok &= nu_lo.value <= nu_hi.value + 1e-12
        ok &= nu_hi.value * (1 - tol) <= rho_hi.value + 1e-9
        d_nu = mric_upper_bound(nu_lo.value, nu_hi.value)
        d_rho = mric_upper_bound(rho_lo.value, rho_hi.value)
        ok &= d_nu <= d_rho * (1 + tol) + 1e-9
    _report(11, "sandwich-and-mric", ok, "10 oracle-sized instances, 2% tolerance")


# one small config per CLI subcommand, also used by tests/test_cli.py
CLI_CONFIGS = {
    "recover": {
        "kind": "recover",
        "ensemble": {"kind": "gaussian", "n1": 4, "n2": 4, "m": 14, "normalize": True},
        "signal": {"r": 1},
        "noise": {"kind": "bounded", "epsilon": 0.05},
        "algorithm": {"name": "mbp", "epsilon": 0.05},
        "trials": 2,
        "seed": 7,
    },
    "cmsv": {
        "kind": "cmsv",
        "ensemble": {"kind": "gaussian", "n1": 3, "n2": 3, "m": 10, "normalize": True},
        "estimation": {"tau": 2.0, "starts": 4},
        "trials": 2,
        "seed": 3,
    },
    "montecarlo": {
        "kind": "montecarlo",
        "ensemble": {"kind": "gaussian", "n1": 4, "n2": 4, "m": 32},
        "estimation": {"tau": 2.0, "starts": 2, "m_sweep": [16, 32]},
        "trials": 2,
        "seed": 5,
    },
    "bounds": {
        "kind": "bounds",
        "ensemble": {"kind": "gaussian", "n1": 2, "n2": 2, "m": 8, "normalize": True},
        "signal": {"r": 1},
        "epsilon_grid": [0.0, 0.1],
        "trials": 1,
        "seed": 2,
    },
    "noise-cal": {
        "kind": "noise-calibration",
        "ensemble": {"kind": "gaussian", "n1": 3, "n2": 4, "m": 12, "normalize": True},
        "noise": {"kind": "gaussian", "sigma": 0.5},
        "trials": 30,
        "seed": 4,
    },
}


def test_criterion_12_cli_reproducibility(tmp_path):
    ok = True
    details = []
    for sub, doc in CLI_CONFIGS.items():
        cfg_path = tmp_path / f"{sub}.json"
        cfg_path.write_text(json.dumps(doc))
        out_a = tmp_path / f"{sub}_a"
        out_b = tmp_path / f"{sub}_b"
        code_a = cli_main([sub, "--config", str(cfg_path), "--out", str(out_a)])
        code_b = cli_main([sub, "--config", str(cfg_path), "--out", str(out_b)])
        same = code_a == code_b == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        same &= files_a == sorted(p.name for p in out_b.iterdir())
        for name in files_a:
            same &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ok &= same
        details.append(f"{sub}:{'ok' if same else 'MISMATCH'}")
    _report(12, "cli-reproducibility", ok, ", ".join(details))
