import numpy as np
import pytest

from nucrec.ensembles import EnsembleSpec, derive_seed, draw_operator, draw_low_rank_signal
from nucrec.linalg import nuclear_norm, operator_norm, prox_nuclear, svd
from nucrec.operators import MeasurementOperator, apply_op, adjoint, make_scenario
from nucrec.solvers import (
    SolverConfig,
    power_iteration_gram_norm,
    solve_mbp,
    solve_mds,
    solve_mlasso,
)
from oracles import mbp_orthonormal_oracle


def entry_basis_op(n):
    """Operator whose measurements are the n*n matrix entries (an isometry)."""
    mats = np.eye(n * n).reshape(n * n, n, n)
    return MeasurementOperator(mats)


def gaussian_instance(seed, n=6, r=1, m=30, noise=None, **noise_kw):
    op = draw_operator(EnsembleSpec("gaussian", n, n, m, seed=seed, normalize=True))
    x = draw_low_rank_signal(n, n, r, scale=1.0, seed=seed + 1)
    scn = make_scenario(op, x, noise or "none", seed=seed + 2, **noise_kw)
    return op, x, scn


class TestPowerIteration:
    def test_isometry(self):
        op = entry_basis_op(3)
        assert power_iteration_gram_norm(op) == pytest.approx(1.0, rel=1e-8)

    def test_matches_dense_eigenvalue(self):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((7, 3, 3))
        op = MeasurementOperator(mats)
        a = mats.reshape(7, -1)
        lam = np.linalg.eigvalsh(a.T @ a).max()
        assert power_iteration_gram_norm(op) == pytest.approx(lam, rel=1e-7)

    @pytest.mark.parametrize("m", [5, 9, 20])
    def test_agrees_with_cached_gram_norm(self, m):
        op = draw_operator(EnsembleSpec("gaussian", 3, 3, m, seed=m, normalize=True))
        assert power_iteration_gram_norm(op) == pytest.approx(op.gram_norm, rel=1e-8)


def test_zero_operator_branch():
    op = MeasurementOperator(np.zeros((5, 2, 2)))
    scn = make_scenario(op, np.eye(2))
    assert op.gram_norm == 0.0
    for res in (solve_mbp(scn, 0.1), solve_mds(scn, 0.1)):
        # the ADMM solvers return at once, without an iteration
        assert res.iterations == 0 and res.converged
        assert np.array_equal(res.x_hat, np.zeros((2, 2)))
    # mLASSO falls back to a unit step; the zero start is already stationary
    res = solve_mlasso(scn, 0.1)
    assert res.converged and res.feasible
    assert np.array_equal(res.x_hat, np.zeros((2, 2)))


class TestMbp:
    def test_noiseless_exact_recovery(self):
        op, x, scn = gaussian_instance(seed=10, n=6, r=1, m=30)
        res = solve_mbp(scn, 0.0)
        assert res.converged
        assert res.feasible
        assert np.linalg.norm(res.x_hat - x) <= 1e-5

    def test_orthonormal_closed_form(self):
        rng = np.random.default_rng(11)
        y_mat = rng.standard_normal((3, 3))
        op = entry_basis_op(3)
        scn = make_scenario(op, np.zeros((3, 3)))
        scn = type(scn)(operator=op, x_true=scn.x_true, noise=scn.noise,
                        y=y_mat.reshape(-1))
        for eps in (0.1, 0.4, 1.0):
            res = solve_mbp(scn, eps)
            oracle = mbp_orthonormal_oracle(y_mat, eps)
            assert np.linalg.norm(res.x_hat - oracle) <= 5e-4, eps

    def test_large_epsilon_gives_zero(self):
        op, x, scn = gaussian_instance(seed=12)
        eps = 2.0 * np.linalg.norm(scn.y)
        res = solve_mbp(scn, eps)
        assert nuclear_norm(res.x_hat) <= 1e-6

    def test_objective_no_larger_than_truth(self):
        op, x, scn = gaussian_instance(seed=13, noise="bounded", epsilon=0.05)
        res = solve_mbp(scn, 0.05)
        assert res.feasible
        assert res.objective <= nuclear_norm(x) + 1e-6

    def test_balanced_penalty_converges_fast(self):
        # trial 0 of the benchmark's recovery workload at seed 100; the
        # fixed penalty admm_rho = 1 needs 1784 iterations here
        spec = EnsembleSpec("gaussian", 12, 12, 160, seed=derive_seed(100, 0), normalize=True)
        x = draw_low_rank_signal(12, 12, 2, 1.0, derive_seed(100, 1))
        scn = make_scenario(draw_operator(spec), x, "bounded", epsilon=0.05, seed=derive_seed(100, 2))
        res = solve_mbp(scn, 0.05)
        assert res.converged and res.feasible
        assert res.iterations < 1000

    def test_noiseless_keeps_fixed_penalty(self):
        # at eps = 0 the dual residual is identically 0; balancing on it
        # would double the penalty on each of the first 200 iterations and
        # take 15 649 iterations to converge
        op = draw_operator(EnsembleSpec("gaussian", 12, 12, 160, seed=0, normalize=True))
        x = draw_low_rank_signal(12, 12, 2, 1.0, 1000)
        res = solve_mbp(make_scenario(op, x), 0.0)
        assert res.converged and res.feasible
        assert res.iterations <= 150

    def test_negative_epsilon(self):
        _, _, scn = gaussian_instance(seed=14)
        with pytest.raises(ValueError):
            solve_mbp(scn, -0.1)

    def test_deterministic(self):
        _, _, scn = gaussian_instance(seed=15, noise="bounded", epsilon=0.1)
        a = solve_mbp(scn, 0.1)
        b = solve_mbp(scn, 0.1)
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.iterations == b.iterations


@pytest.mark.parametrize("shape", [(3, 3), (4, 6), (6, 4)])
def test_prox_nuclear_matches_svd_soft_threshold(shape):
    x = np.random.default_rng(50).standard_normal(shape)
    f = svd(x)
    expected = (f.u * np.maximum(f.sigma - 0.7, 0.0)) @ f.v.T
    assert np.array_equal(prox_nuclear(x, 0.7), expected)


class TestMds:
    def test_orthonormal_closed_form(self):
        # With the entry basis A*A is the identity, so the program reduces to
        # nuclear-norm minimization over an operator-norm ball around Y,
        # solved exactly by singular value soft-thresholding at lam.
        rng = np.random.default_rng(20)
        y_mat = rng.standard_normal((3, 3))
        op = entry_basis_op(3)
        scn = make_scenario(op, y_mat)
        lam = 0.6
        res = solve_mds(scn, lam)
        oracle = prox_nuclear(y_mat, lam)
        assert np.linalg.norm(res.x_hat - oracle) <= 1e-6

    def test_noiseless_near_exact(self):
        op, x, scn = gaussian_instance(seed=21, n=6, r=1, m=30)
        res = solve_mds(scn, 1e-3)
        assert res.feasible
        assert np.linalg.norm(res.x_hat - x) <= 2e-2

    def test_constraint_satisfied(self):
        op, x, scn = gaussian_instance(seed=22, noise="gaussian", sigma=0.02)
        lam = 0.1
        res = solve_mds(scn, lam)
        corr = adjoint(op, scn.y - apply_op(op, res.x_hat))
        assert operator_norm(corr) <= lam + 1e-6

    def test_constraint_satisfied_below_half_sampling(self):
        # 2m < n1*n2: the Gram map goes through flat, and gram is never built
        op, x, scn = gaussian_instance(seed=25, m=12, noise="gaussian", sigma=0.02)
        lam = 0.1
        res = solve_mds(scn, lam)
        corr = adjoint(op, scn.y - apply_op(op, res.x_hat))
        assert operator_norm(corr) <= lam + 1e-6
        assert "gram" not in op.__dict__

    def test_large_lambda_gives_zero(self):
        op, x, scn = gaussian_instance(seed=23)
        lam = 2.0 * operator_norm(adjoint(op, scn.y))
        res = solve_mds(scn, lam)
        assert nuclear_norm(res.x_hat) <= 1e-6

    def test_negative_lambda(self):
        _, _, scn = gaussian_instance(seed=24)
        with pytest.raises(ValueError):
            solve_mds(scn, -0.5)


class TestMlasso:
    def test_orthonormal_prox_closed_form(self):
        rng = np.random.default_rng(30)
        y_mat = rng.standard_normal((3, 3))
        op = entry_basis_op(3)
        scn = make_scenario(op, y_mat)
        mu = 0.7
        res = solve_mlasso(scn, mu)
        assert res.converged
        assert np.linalg.norm(res.x_hat - prox_nuclear(y_mat, mu)) <= 1e-9

    def test_stationarity_certificate(self):
        op, x, scn = gaussian_instance(seed=31, noise="gaussian", sigma=0.05)
        res = solve_mlasso(scn, 0.05)
        assert res.converged
        assert res.feasible

    def test_objective_no_larger_than_truth(self):
        op, x, scn = gaussian_instance(seed=32, noise="gaussian", sigma=0.05)
        mu = 0.08
        res = solve_mlasso(scn, mu)
        r = scn.y - apply_op(op, x)
        truth_obj = 0.5 * float(r @ r) + mu * nuclear_norm(x)
        assert res.objective <= truth_obj + 1e-9

    def test_large_mu_gives_zero(self):
        op, x, scn = gaussian_instance(seed=33)
        mu = 2.0 * operator_norm(adjoint(op, scn.y))
        res = solve_mlasso(scn, mu)
        assert nuclear_norm(res.x_hat) <= 1e-10

    def test_nonpositive_mu(self):
        _, _, scn = gaussian_instance(seed=34)
        with pytest.raises(ValueError):
            solve_mlasso(scn, 0.0)

    def test_deterministic(self):
        _, _, scn = gaussian_instance(seed=35, noise="gaussian", sigma=0.03)
        a = solve_mlasso(scn, 0.05)
        b = solve_mlasso(scn, 0.05)
        assert np.array_equal(a.x_hat, b.x_hat)


class TestConfigValidation:
    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(abs_tol=0.0)

    def test_bad_rho(self):
        with pytest.raises(ValueError):
            SolverConfig(admm_rho=-1.0)

    def test_max_iters_flags_nonconvergence(self):
        op, x, scn = gaussian_instance(seed=40, noise="gaussian", sigma=0.05)
        res = solve_mlasso(scn, 0.01, SolverConfig(max_iters=2))
        assert not res.converged
