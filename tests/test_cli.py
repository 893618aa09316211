import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nucrec import experiments
from nucrec.cli import EXIT_CONFIG, EXIT_IO, EXIT_NONCONVERGED, EXIT_OK, _check_runnable, main
from nucrec.cmsv import brute_force_cmsv
from nucrec.config_schema import validate
from nucrec.ensembles import draw_operator
from nucrec.experiments import config_hash
from test_acceptance import CLI_CONFIGS

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        next(fh)  # the config_hash line
        return list(csv.DictReader(fh))


def recover_config(**overrides):
    doc = {
        "kind": "recover",
        "ensemble": {"kind": "gaussian", "n1": 4, "n2": 4, "m": 14, "normalize": True},
        "signal": {"r": 1},
        "noise": {"kind": "bounded", "epsilon": 0.05},
        "algorithm": {"name": "mbp", "epsilon": 0.05},
        "trials": 2,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def cmsv_config(**overrides):
    doc = {
        "kind": "cmsv",
        "ensemble": {"kind": "gaussian", "n1": 3, "n2": 3, "m": 10, "normalize": True},
        "estimation": {"tau": 2.0, "starts": 4},
        "trials": 2,
        "seed": 3,
    }
    doc.update(overrides)
    return doc


def bounds_config(**overrides):
    doc = {
        "kind": "bounds",
        "ensemble": {"kind": "gaussian", "n1": 2, "n2": 2, "m": 8, "normalize": True},
        "signal": {"r": 1},
        "epsilon_grid": [0.0, 0.1],
        "trials": 1,
        "seed": 2,
    }
    doc.update(overrides)
    return doc


def montecarlo_config(**overrides):
    doc = {
        "kind": "montecarlo",
        "ensemble": {"kind": "gaussian", "n1": 4, "n2": 4, "m": 64},
        "estimation": {"tau": 2.0, "starts": 4, "m_sweep": [32, 64], "epsilon_band": 0.5},
        "trials": 3,
        "seed": 5,
    }
    doc.update(overrides)
    return doc


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def test_readme_configs_are_valid(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", (REPO_ROOT / "README.md").read_text(), re.S)
    configs = {doc["kind"]: doc for doc in map(json.loads, blocks)}
    assert set(configs) == {"montecarlo", "bounds"}
    for doc in configs.values():
        validate(doc)
        _check_runnable(doc, doc["kind"])  # both kinds are also subcommand names
    cfg = write_config(tmp_path, configs["bounds"])
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out), "--trials", "1"]) == EXIT_OK
    assert len(read_csv_rows(out / "bounds.csv")) == len(configs["bounds"]["epsilon_grid"])


def test_cli_import_leaves_out_jsonschema_and_multiprocessing():
    code = "import sys, nucrec.cli; print([m for m in ('jsonschema', 'multiprocessing') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        assert main(["cmsv", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_missing_config_file(self, tmp_path):
        assert main(["cmsv", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["cmsv", "--config", str(p)]) == EXIT_CONFIG

    def test_schema_violation(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config(trials=0))
        assert main(["cmsv", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config(bogus=1))
        assert main(["cmsv", "--config", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [("samples", 100_000), ("r", 2)])
    def test_removed_estimation_keys_rejected(self, tmp_path, key, value):
        # these keys were accepted but never read
        doc = cmsv_config(estimation={"tau": 2.0, "starts": 4, key: value})
        assert main(["cmsv", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG

    def test_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        assert main(["recover", "--config", cfg]) == EXIT_CONFIG

    def test_nonconvergence(self, tmp_path):
        doc = recover_config(
            algorithm={"name": "mlasso", "mu": 0.001},
            noise={"kind": "gaussian", "sigma": 0.05},
            solver={"max_iters": 3},
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == EXIT_NONCONVERGED
        # partial results are still written
        assert (out / "recover.csv").exists()

    def test_io_failure(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        assert main(["cmsv", "--config", cfg, "--out", str(blocker)]) == EXIT_IO

    @pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--seed", "-1")])
    def test_override_revalidated(self, tmp_path, flag, value):
        # --trials 0 used to write "mean_rho_min": NaN, which is not JSON
        cfg = write_config(tmp_path, cmsv_config())
        out = tmp_path / "out"
        assert main(["cmsv", "--config", cfg, "--out", str(out), flag, value]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"trials": 2.0},
        {"ensemble": {"kind": "gaussian", "n1": 3, "n2": 3, "m": 10.0, "normalize": True}},
        {"seed": 3.0},
    ], ids=["trials", "ensemble.m", "seed"])
    def test_float_valued_integer_rejected(self, tmp_path, overrides):
        # 2.0 used to pass the schema and crash the runner (exit 1), and
        # "seed": 3.0 hashed differently from "seed": 3
        cfg = write_config(tmp_path, cmsv_config(**overrides))
        out = tmp_path / "out"
        assert main(["cmsv", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_nonfinite_literal_rejected(self, tmp_path, literal):
        # json.load accepts these non-JSON literals; NaN used to exit 0
        text = json.dumps(cmsv_config(estimation={"tau": 1.25})).replace("1.25", literal)
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["cmsv", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("sub, doc, key", [
        ("recover", without(recover_config(), "signal"), "signal"),
        ("recover", without(recover_config(), "algorithm"), "algorithm"),
        ("recover", recover_config(algorithm={"name": "mds"}), "algorithm.lambda"),
        ("recover", recover_config(algorithm={"name": "mlasso"}), "algorithm.mu"),
        ("bounds", without(bounds_config(), "signal"), "signal"),
        ("montecarlo", montecarlo_config(ensemble={"kind": "gaussian", "n1": 4, "n2": 4, "m": 64,
                                                   "normalize": False}), "ensemble.normalize"),
        ("cmsv", cmsv_config(estimation={"tau": 5.0, "starts": 4}), "estimation.tau"),
        ("cmsv", cmsv_config(ensemble={"kind": "gaussian", "n1": 1, "n2": 3, "m": 4},
                             estimation={"starts": 4}), "estimation.tau"),
        ("montecarlo", montecarlo_config(estimation={"tau": 5.0, "m_sweep": [32]}), "estimation.tau"),
        ("recover", recover_config(signal={"r": 5}), "signal.r"),
        ("bounds", bounds_config(signal={"r": 3}), "signal.r"),
        ("recover", recover_config(noise={"kind": "bounded"}), "noise.epsilon"),
        ("recover", recover_config(noise={"kind": "gaussian"}), "noise.sigma"),
        ("noise-cal", {**CLI_CONFIGS["noise-cal"], "noise": {"kind": "bounded", "epsilon": 0.3}}, "noise.kind"),
    ], ids=["recover-signal", "recover-algorithm", "mds-lambda", "mlasso-mu", "bounds-signal",
            "montecarlo-normalize", "cmsv-tau", "cmsv-default-tau", "montecarlo-tau", "recover-rank",
            "bounds-rank", "bounded-epsilon", "gaussian-sigma", "noise-cal-bounded"])
    def test_config_its_kind_cannot_run(self, tmp_path, capsys, sub, doc, key):
        # the missing keys used to crash the runner with a KeyError (exit 1)
        # after it created the output directory, montecarlo silently
        # normalized anyway, a tau or rank above min(n1, n2) exited 2 only
        # after creating the output directory, and recover's noise without
        # its epsilon or sigma added zero noise, as noise-cal ran a bounded
        # noise kind as Gaussian
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([sub, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("sub, doc, key", [
        ("cmsv", cmsv_config(epsilon_grid=[0.1]), "epsilon_grid"),
        ("cmsv", cmsv_config(algorithm={"name": "mbp"}), "algorithm"),
        ("cmsv", cmsv_config(signal={"r": 1}), "signal"),
        ("cmsv", cmsv_config(c=8.0), "c"),
        ("cmsv", cmsv_config(estimation={"tau": 2.0, "m_sweep": [16]}), "estimation.m_sweep"),
        ("cmsv", cmsv_config(estimation={"tau": 2.0, "epsilon_band": 0.3}), "estimation.epsilon_band"),
        ("montecarlo", montecarlo_config(noise={"kind": "none"}), "noise"),
        ("recover", recover_config(estimation={"tau": 2.0}), "estimation"),
        ("bounds", bounds_config(noise={"kind": "none"}), "noise"),
        ("noise-cal", {"kind": "noise-calibration", "ensemble": {"kind": "gaussian", "n1": 3, "n2": 3, "m": 10},
                       "solver": {"max_iters": 5}, "trials": 5, "seed": 1}, "solver"),
        ("recover", recover_config(noise={"kind": "bounded", "epsilon": 0.05, "sigma": 3.0},
                                   algorithm={"name": "mds", "lambda": 0.1, "epsilon": 0.7, "kappa": 0.2}),
         "noise.sigma"),
        ("recover", recover_config(algorithm={"name": "mbp", "epsilon": 0.05, "kappa": 0.2}), "algorithm.kappa"),
        ("noise-cal", {**CLI_CONFIGS["noise-cal"], "noise": {"kind": "gaussian", "epsilon": 0.3}}, "noise.epsilon"),
        ("cmsv", cmsv_config(solver={"abs_tol": 1e-3}), "solver"),
        ("cmsv", cmsv_config(solver={"admm_rho": 4.0}), "solver"),
        ("cmsv", cmsv_config(solver={"max_iters": 301}), "solver"),
        ("montecarlo", montecarlo_config(solver={"abs_tol": 1e-3}), "solver"),
        ("montecarlo", montecarlo_config(solver={"admm_rho": 4.0}), "solver"),
        ("montecarlo", montecarlo_config(solver={"max_iters": 301}), "solver"),
        ("recover", recover_config(solver={"rel_tol": 1e-2}), "solver.rel_tol"),
        ("recover", recover_config(algorithm={"name": "mds", "lambda": 0.1}, solver={"rel_tol": 1e-2}),
         "solver.rel_tol"),
        ("recover", recover_config(algorithm={"name": "mlasso", "mu": 0.01}, solver={"admm_rho": 4.0}),
         "solver.admm_rho"),
        ("bounds", bounds_config(solver={"rel_tol": 1e-2}), "solver.rel_tol"),
    ], ids=["cmsv-epsilon_grid", "cmsv-algorithm", "cmsv-signal", "cmsv-c", "cmsv-m_sweep",
            "cmsv-epsilon_band", "montecarlo-noise", "recover-estimation", "bounds-noise", "noise-cal-solver",
            "mds-sigma-epsilon-kappa", "mbp-kappa", "noise-cal-epsilon", "cmsv-abs_tol", "cmsv-admm_rho",
            "cmsv-max_iters", "montecarlo-abs_tol", "montecarlo-admm_rho", "montecarlo-max_iters",
            "mbp-rel_tol", "mds-rel_tol", "mlasso-admm_rho", "bounds-rel_tol"])
    def test_section_its_kind_never_reads(self, tmp_path, capsys, sub, doc, key):
        # each used to exit 0 with the key ignored (the estimator capped its
        # sweeps at 300 whatever solver.max_iters said)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([sub, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        parent, _, name = key.rpartition(".")
        assert f"{parent or 'config'}: unknown key '{name}'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        cfg = write_config(tmp_path, cmsv_config())
        out = tmp_path / "out"
        assert main(["cmsv", "--config", cfg, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
        assert not out.exists()


class TestOutputs:
    def test_csv_meta_line(self, tmp_path):
        doc = cmsv_config()
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["cmsv", "--config", cfg, "--out", str(out)]) == EXIT_OK
        first = (out / "cmsv.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        assert config_hash(doc) in first

    def test_lf_line_endings(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        out = tmp_path / "out"
        main(["cmsv", "--config", cfg, "--out", str(out)])
        raw = (out / "cmsv.csv").read_bytes()
        assert b"\r" not in raw

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["cmsv", "--config", cfg, "--out", str(out_a)])
        main(["cmsv", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "cmsv.csv").read_bytes() == (out_b / "cmsv.csv").read_bytes()
        assert (out_a / "cmsv.json").read_bytes() == (out_b / "cmsv.json").read_bytes()

    def test_format_restriction(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        out = tmp_path / "out"
        main(["cmsv", "--config", cfg, "--out", str(out), "--format", "json"])
        assert not (out / "cmsv.csv").exists()
        assert (out / "cmsv.json").exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["cmsv", "--config", cfg, "--out", str(out_a)])
        main(["cmsv", "--config", cfg, "--out", str(out_b), "--seed", "99"])
        a = json.loads((out_a / "cmsv.json").read_text())
        b = json.loads((out_b / "cmsv.json").read_text())
        assert a["rows"] != b["rows"]

    def test_trials_override(self, tmp_path):
        cfg = write_config(tmp_path, cmsv_config())
        out = tmp_path / "out"
        main(["cmsv", "--config", cfg, "--out", str(out), "--trials", "3"])
        data = json.loads((out / "cmsv.json").read_text())
        assert data["trials"] == 3
        assert len(data["rows"]) == 3

    def test_output_path_from_config(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, cmsv_config(output_path=str(out)))
        main(["cmsv", "--config", cfg])
        assert (out / "cmsv.json").exists()


class TestRunners:
    def test_recover_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, recover_config())
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "recover.json").read_text())
        assert data["converged"] == 2
        assert data["mean_relative_error"] < 0.2

    def test_recover_oracle_sized_reports_bound(self, tmp_path):
        doc = recover_config(
            ensemble={"kind": "gaussian", "n1": 2, "n2": 2, "m": 8, "normalize": True}
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["recover", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "recover.json").read_text())
        for row in data["rows"]:
            assert row["bound_value"] != ""
            assert row["cone_satisfied"] is True

    def test_montecarlo_summary(self, tmp_path):
        cfg = write_config(tmp_path, montecarlo_config())
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "montecarlo.json").read_text())
        assert set(data["per_m"]) == {"32", "64"}
        for block in data["per_m"].values():
            assert 0.0 <= block["fraction_in_band"] <= 1.0

    def test_bounds_ledger(self, tmp_path):
        cfg = write_config(tmp_path, bounds_config())
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "bounds.json").read_text())
        assert len(data["rows"]) == 2
        for row in data["rows"]:
            assert row["mric_applicable"] in (True, False)

    @pytest.mark.parametrize("seed", [1, 24])
    def test_bounds_ledger_noiseless_rows_hold(self, tmp_path, seed):
        # at epsilon = 0 the realized error is at the solver tolerance, not 0
        doc = {
            "kind": "bounds",
            "ensemble": {"kind": "gaussian", "n1": 3, "n2": 3, "m": 20, "normalize": True},
            "signal": {"r": 1},
            "epsilon_grid": [0.0, 0.05],
            "trials": 1,
            "seed": seed,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = json.loads((out / "bounds.json").read_text())["rows"]
        assert [row["epsilon"] for row in rows] == [0.0, 0.05]
        assert all(row["cmsv_holds"] is True for row in rows)

    def test_oracle_sized_runs_with_null_space(self, tmp_path):
        # m < n1*n2: rho is zero up to roundoff, and both runners still finish
        ensemble = {"kind": "gaussian", "n1": 3, "n2": 3, "m": 6, "normalize": True}
        cfg = write_config(tmp_path, recover_config(ensemble=ensemble, trials=1))
        assert main(["recover", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK
        doc = {
            "kind": "bounds",
            "ensemble": ensemble,
            "signal": {"r": 1},
            "epsilon_grid": [0.0, 0.1],
            "trials": 1,
            "seed": 5,
        }
        cfg = write_config(tmp_path, doc, name="bounds.json")
        # the epsilon = 0 solve stops at the iteration cap
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_NONCONVERGED
        rows = json.loads((tmp_path / "b" / "bounds.json").read_text())["rows"]
        assert all(row["rho_hat"] <= 1e-12 for row in rows)

    def test_rank_deficient_operator_leaves_bound_empty(self, tmp_path):
        # m < n1*n2: rho is exactly 0, so the mBP bound is inapplicable; a
        # roundoff-level rho used to give bounds of 0 and about 1e14
        ensemble = {"kind": "gaussian", "n1": 3, "n2": 3, "m": 6, "normalize": True}
        cfg = write_config(tmp_path, recover_config(ensemble=ensemble, trials=1))
        assert main(["recover", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK
        (row,) = read_csv_rows(tmp_path / "r" / "recover.csv")
        assert row["bound_value"] == "" and row["holds"] == ""
        doc = {
            "kind": "bounds",
            "ensemble": ensemble,
            "signal": {"r": 1},
            "epsilon_grid": [0.0, 0.05],
            "trials": 1,
            "seed": 5,
        }
        cfg = write_config(tmp_path, doc, name="bounds.json")
        # the epsilon = 0 solve stops at the iteration cap
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_NONCONVERGED
        rows = read_csv_rows(tmp_path / "b" / "bounds.csv")
        assert [row["epsilon"] for row in rows] == ["0.0", "0.05"]
        for row in rows:
            assert float(row["rho_hat"]) == 0.0
            assert row["cmsv_bound"] == "" and row["cmsv_holds"] == ""

    def test_noiseless_recover_rows_hold(self, tmp_path):
        # epsilon = 0: the nominal bound is 0 and the realized error is at the
        # solver tolerance, so only the bound at the level reached can hold
        doc = recover_config(
            ensemble={"kind": "gaussian", "n1": 3, "n2": 3, "m": 12, "normalize": True},
            noise={"kind": "none"}, algorithm={"name": "mbp"}, trials=4, seed=100,
        )
        cfg = write_config(tmp_path, doc)
        assert main(["recover", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_OK
        rows = json.loads((tmp_path / "o" / "recover.json").read_text())["rows"]
        assert [row["bound_value"] for row in rows] == [0.0] * 4
        assert all(row["holds"] is True for row in rows)

    def test_capped_ledger_solve_exits_nonconverged(self, tmp_path):
        # the epsilon = 0 solve on this ill-conditioned operator stops at the
        # iteration cap; both files are still written
        doc = bounds_config(
            ensemble={"kind": "gaussian", "n1": 3, "n2": 3, "m": 6, "normalize": True}, seed=5
        )
        del doc["epsilon_grid"]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_NONCONVERGED
        rows = json.loads((out / "bounds.json").read_text())["rows"]
        assert [(row["epsilon"], row["converged"]) for row in rows] == [
            (0.0, False), (0.05, True), (0.1, True), (0.2, True)
        ]
        assert [row["converged"] for row in read_csv_rows(out / "bounds.csv")] == ["False", "True", "True", "True"]

    @pytest.mark.parametrize("m", [6, 9, 20])
    def test_ledger_delta_is_exact(self, tmp_path, monkeypatch, m):
        # n_min <= 3 < 4r: the rank constraint is vacuous, so delta comes
        # from the extreme singular values (sigma_min = 0 when m < n1*n2)
        ops, rhos = [], []
        monkeypatch.setattr(experiments, "draw_operator", lambda spec: ops.append(draw_operator(spec)) or ops[-1])
        monkeypatch.setattr(
            experiments, "brute_force_cmsv", lambda *a, **k: rhos.append(brute_force_cmsv(*a, **k)) or rhos[-1]
        )
        # one exact rho per trial is all the ledger estimates
        monkeypatch.setattr(experiments, "estimate_rcsv", None, raising=False)
        doc = bounds_config(
            ensemble={"kind": "gaussian", "n1": 3, "n2": 3, "m": m, "normalize": True},
            epsilon_grid=[0.1], trials=3, seed=11,
        )
        rows = experiments.run_bounds_ledger(doc, tmp_path, formats=("json",))["rows"]
        assert len(ops) == len(rhos) == len(rows) == 3
        assert all(rho.evidence == "exact" for rho in rhos)
        for op, row in zip(ops, rows):
            s = np.linalg.svd(op.flat, compute_uv=False)
            smin = s[-1] if m >= 9 else 0.0
            delta = max(abs(1.0 - smin**2), abs(s[0] ** 2 - 1.0))
            assert row["delta_hat"] == pytest.approx(delta, rel=1e-12, abs=0.0)
            assert row["rho_hat"] == pytest.approx(smin, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_rho_bound_holds_on_converged_rows(self, tmp_path, seed):
        # an exact rho, a converged mBP solve and ||w|| <= epsilon: the bound
        # at the level reached holds on every recover and ledger row
        ensemble = {"kind": "gaussian", "n1": 3, "n2": 3, "m": 12, "normalize": True}
        checked = 0
        for i, noise in enumerate([{"kind": "bounded", "epsilon": 0.05}, {"kind": "none"}]):
            doc = recover_config(ensemble=ensemble, noise=noise, algorithm={"name": "mbp"}, trials=2, seed=seed)
            out = tmp_path / f"r{i}"
            assert main(["recover", "--config", write_config(tmp_path, doc), "--out", str(out)]) in (
                EXIT_OK, EXIT_NONCONVERGED
            )
            rows = json.loads((out / "recover.json").read_text())["rows"]
            for row in rows:
                assert row["holds"] is True or not row["converged"]
                checked += row["converged"]
        doc = bounds_config(ensemble={**ensemble, "m": 20}, epsilon_grid=[0.0, 0.05, 0.2], seed=seed)
        out = tmp_path / "b"
        assert main(["bounds", "--config", write_config(tmp_path, doc), "--out", str(out)]) in (
            EXIT_OK, EXIT_NONCONVERGED
        )
        for row in json.loads((out / "bounds.json").read_text())["rows"]:
            assert row["cmsv_holds"] is True or not row["converged"]
            checked += row["converged"]
        assert checked >= 6

    def test_bounds_ledger_rejects_large_instance(self, tmp_path):
        doc = {
            "kind": "bounds",
            "ensemble": {"kind": "gaussian", "n1": 4, "n2": 4, "m": 8},
            "signal": {"r": 1},
            "trials": 1,
            "seed": 2,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_noise_calibration(self, tmp_path):
        doc = {
            "kind": "noise-calibration",
            "ensemble": {"kind": "gaussian", "n1": 3, "n2": 4, "m": 12, "normalize": True},
            "noise": {"kind": "gaussian", "sigma": 0.5},
            "c": 8.0,
            "trials": 50,
            "seed": 4,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["noise-cal", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "noise_cal.json").read_text())
        assert data["suggested_lambda"] > 0
        assert data["suggested_mu"] == pytest.approx(2 * data["suggested_lambda"])
        assert data["exceed_fraction"] <= 0.05

    @pytest.mark.parametrize("sub, algorithm", [
        ("recover", None),
        ("recover", {"name": "mds", "lambda": 0.05}),
        ("recover", {"name": "mlasso", "mu": 0.05}),
        ("cmsv", None),
        ("montecarlo", None),
        ("bounds", None),
    ], ids=["recover", "recover-mds", "recover-mlasso", "cmsv", "montecarlo", "bounds"])
    def test_jobs_matches_serial(self, tmp_path, sub, algorithm):
        # three trials, so every runner maps them over the pool of two
        doc = CLI_CONFIGS[sub] if algorithm is None else {**CLI_CONFIGS[sub], "algorithm": algorithm}
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([sub, "--config", cfg, "--out", str(out_a), "--trials", "3"]) == EXIT_OK
        assert main([sub, "--config", cfg, "--out", str(out_b), "--trials", "3", "--jobs", "2"]) == EXIT_OK
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir()) and len(names) == 2
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
