import math

import numpy as np
import pytest

from nucrec.bounds import (
    BoundInapplicable,
    bound_mbp,
    bound_mds,
    bound_mlasso,
    bound_mbp_mric,
    lasso_subscript,
    noise_operator_bound,
    verify_bound,
)
from nucrec.cmsv import brute_force_cmsv, estimate_cmsv, estimate_rcsv
from nucrec.ensembles import EnsembleSpec, draw_operator, draw_low_rank_signal
from nucrec.linalg import operator_norm
from nucrec.operators import adjoint, apply_op, make_scenario
from nucrec.solvers import solve_mbp, solve_mds

SQRT2 = math.sqrt(2.0)


class TestClosedForms:
    def test_mbp_example(self):
        assert bound_mbp(0.5, 0.25) == pytest.approx(4.0)

    def test_mbp_zero_noise(self):
        assert bound_mbp(0.0, 0.7) == 0.0

    def test_mbp_bad_rho(self):
        with pytest.raises(BoundInapplicable):
            bound_mbp(0.1, 0.0)

    def test_mds_example(self):
        # 4*sqrt(2)*sqrt(2)*0.3 / 0.25 = 8*0.3/0.25
        assert bound_mds(2, 0.3, 0.5) == pytest.approx(8.0 * 0.3 / 0.25)

    def test_mds_validation(self):
        with pytest.raises(ValueError):
            bound_mds(0, 0.3, 0.5)
        with pytest.raises(ValueError):
            bound_mds(1, -0.1, 0.5)

    def test_lasso_subscript(self):
        assert lasso_subscript(1, 0.5) == pytest.approx(32.0)
        with pytest.raises(ValueError):
            lasso_subscript(1, 1.0)

    def test_mlasso_example(self):
        val = bound_mlasso(1, 0.2, 0.5, 0.4)
        expected = 3.0 * 2.0 * SQRT2 * 0.2 / 0.16
        assert val == pytest.approx(expected)

    def test_mlasso_validation(self):
        with pytest.raises(ValueError):
            bound_mlasso(1, 0.0, 0.5, 0.4)
        with pytest.raises(BoundInapplicable):
            bound_mlasso(1, 0.1, 0.5, 0.0)

    def test_monotonicity_in_rho(self):
        assert bound_mbp(0.3, 0.9) < bound_mbp(0.3, 0.5)
        assert bound_mds(1, 0.3, 0.9) < bound_mds(1, 0.3, 0.5)
        assert bound_mlasso(1, 0.3, 0.5, 0.9) < bound_mlasso(1, 0.3, 0.5, 0.5)


class TestRicForms:
    def test_mbp_mric_zero_delta(self):
        assert bound_mbp_mric(0.5, 0.0) == pytest.approx(2.0)

    def test_mbp_mric_formula(self):
        d = 0.1
        expected = 4.0 * math.sqrt(1.1) / (1.0 - (1.0 + SQRT2) * d) * 0.3
        assert bound_mbp_mric(0.3, d) == pytest.approx(expected)

    def test_mbp_mric_validity_edge(self):
        with pytest.raises(BoundInapplicable):
            bound_mbp_mric(0.1, SQRT2 - 1.0)
        # just inside the validity region still works
        assert bound_mbp_mric(0.1, SQRT2 - 1.0 - 1e-6) > 0


class TestVerifyBound:
    def setup_method(self):
        self.op = draw_operator(
            EnsembleSpec("gaussian", 2, 2, 8, seed=50, normalize=True)
        )
        self.x = draw_low_rank_signal(2, 2, 1, scale=1.0, seed=51)
        self.scn = make_scenario(self.op, self.x, "bounded", epsilon=0.05, seed=52)

    def rho(self, tau):
        return estimate_cmsv(self.op, tau, "min", starts=8, seed=0)

    def test_report_fields(self):
        res = solve_mbp(self.scn, 0.05)
        rep = verify_bound(self.scn, res, "mbp", {"epsilon": 0.05}, self.rho(2.0))
        assert rep.algorithm == "mbp"
        assert rep.realized_error >= 0
        assert rep.bound_value == pytest.approx(
            bound_mbp(0.05, self.rho(2.0).value)
        )
        assert rep.holds == (rep.realized_error <= rep.bound_value)
        assert rep.slack_ratio == pytest.approx(
            rep.bound_value / max(rep.realized_error, 1e-12)
        )
        assert rep.rho_onesided
        assert rep.cone_check["tau_limit"] == pytest.approx(8.0)

    def test_holds_at_the_level_reached(self):
        # bound_value stays nominal; holds uses the mean of the nominal level
        # and the level the result reached, for both constrained programs
        op, y = self.op, self.scn.y
        res = solve_mbp(self.scn, 0.05)
        rep = verify_bound(self.scn, res, "mbp", {"epsilon": 0.05}, self.rho(2.0))
        reached = np.linalg.norm(y - apply_op(op, res.x_hat))
        rho = self.rho(2.0).value
        assert rep.bound_value == pytest.approx(0.1 / rho)
        assert rep.holds == (rep.realized_error <= (0.05 + max(0.05, reached)) / rho)
        res = solve_mds(self.scn, 0.02)
        rep = verify_bound(self.scn, res, "mds", {"lambda": 0.02}, self.rho(2.0))
        lam = 0.5 * (0.02 + max(0.02, operator_norm(adjoint(op, y - apply_op(op, res.x_hat)))))
        assert rep.bound_value == pytest.approx(bound_mds(1, 0.02, rho))
        assert rep.holds == (rep.realized_error <= bound_mds(1, lam, rho))

    def test_rho_onesided_follows_the_estimate(self):
        res = solve_mbp(self.scn, 0.05)
        exact = brute_force_cmsv(self.op, 2.0, "min")
        rep = verify_bound(self.scn, res, "mbp", {"epsilon": 0.05}, exact)
        assert not rep.rho_onesided
        assert rep.holds
        assert verify_bound(self.scn, res, "mbp", {"epsilon": 0.05}, self.rho(2.0)).rho_onesided

    def test_subscript_mismatch_raises(self):
        res = solve_mbp(self.scn, 0.05)
        with pytest.raises(ValueError):
            verify_bound(self.scn, res, "mbp", {"epsilon": 0.05}, self.rho(1.5))

    def test_unknown_algorithm(self):
        res = solve_mbp(self.scn, 0.05)
        with pytest.raises(ValueError):
            verify_bound(self.scn, res, "omp", {"epsilon": 0.05}, self.rho(2.0))

    def test_rank_constrained_estimate_raises(self):
        res = solve_mbp(self.scn, 0.05)
        nu = estimate_rcsv(self.op, 1, "min", starts=2, seed=0)
        with pytest.raises(ValueError):
            verify_bound(self.scn, res, "mbp", {"epsilon": 0.05}, nu)


class TestNoiseOperatorBound:
    def setup_method(self):
        self.op = draw_operator(
            EnsembleSpec("gaussian", 3, 4, 12, seed=60, normalize=True)
        )

    def test_sigma_zero_all_zero(self):
        out = noise_operator_bound(self.op, 0.0, n2=4, trials=5, seed=0)
        assert np.all(out["values"] == 0.0)
        assert out["threshold"] == 0.0

    def test_values_sorted_and_sized(self):
        out = noise_operator_bound(self.op, 0.5, n2=4, trials=40, seed=1)
        assert len(out["values"]) == 40
        assert np.all(np.diff(out["values"]) >= 0)

    def test_quantiles_monotone(self):
        out = noise_operator_bound(self.op, 0.5, n2=4, trials=200, seed=2)
        q = out["quantiles"]
        assert q["0.5"] <= q["0.9"] <= q["0.95"] <= q["0.99"]

    def test_exceed_fraction_small_for_large_c(self):
        out = noise_operator_bound(self.op, 0.5, n2=4, trials=200, seed=3, c=8.0)
        assert out["exceed_fraction"] <= 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_operator_bound(self.op, -1.0, n2=4, trials=5, seed=0)
        with pytest.raises(ValueError):
            noise_operator_bound(self.op, 0.5, n2=4, trials=0, seed=0)

    def test_deterministic(self):
        a = noise_operator_bound(self.op, 0.5, n2=4, trials=20, seed=4)
        b = noise_operator_bound(self.op, 0.5, n2=4, trials=20, seed=4)
        assert np.array_equal(a["values"], b["values"])
