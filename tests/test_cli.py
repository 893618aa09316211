import csv
import json
from pathlib import Path

import pytest

from nucrec.cli import EXIT_CONFIG, EXIT_IO, EXIT_NONCONVERGED, EXIT_OK, main
from nucrec.config_schema import SCHEMA
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


class TestSchemaFile:
    def test_shipped_schema_in_sync(self):
        shipped = json.loads((REPO_ROOT / "schema" / "experiment.schema.json").read_text())
        assert shipped == SCHEMA


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
        doc = {
            "kind": "montecarlo",
            "ensemble": {"kind": "gaussian", "n1": 4, "n2": 4, "m": 64},
            "estimation": {"tau": 2.0, "starts": 4, "m_sweep": [32, 64], "epsilon_band": 0.5},
            "trials": 3,
            "seed": 5,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "montecarlo.json").read_text())
        assert set(data["per_m"]) == {"32", "64"}
        for block in data["per_m"].values():
            assert 0.0 <= block["fraction_in_band"] <= 1.0

    def test_bounds_ledger(self, tmp_path):
        doc = {
            "kind": "bounds",
            "ensemble": {"kind": "gaussian", "n1": 2, "n2": 2, "m": 8, "normalize": True},
            "signal": {"r": 1},
            "epsilon_grid": [0.0, 0.1],
            "trials": 1,
            "seed": 2,
        }
        cfg = write_config(tmp_path, doc)
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
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
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
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
        rows = read_csv_rows(tmp_path / "b" / "bounds.csv")
        assert [row["epsilon"] for row in rows] == ["0.0", "0.05"]
        for row in rows:
            assert float(row["rho_hat"]) == 0.0
            assert row["cmsv_bound"] == "" and row["cmsv_holds"] == ""

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

    @pytest.mark.parametrize("sub", ["recover", "cmsv", "montecarlo", "bounds"])
    def test_jobs_matches_serial(self, tmp_path, sub):
        # three trials, so every runner maps them over the pool of two
        cfg = write_config(tmp_path, CLI_CONFIGS[sub])
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([sub, "--config", cfg, "--out", str(out_a), "--trials", "3"]) == EXIT_OK
        assert main([sub, "--config", cfg, "--out", str(out_b), "--trials", "3", "--jobs", "2"]) == EXIT_OK
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir()) and len(names) == 2
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
