import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nucrec.cmsv import (
    Estimate,
    _project_singular_values,
    estimate_cmsv,
    brute_force_cmsv,
    estimate_rcsv,
    mric_upper_bound,
    project_htau,
)
from nucrec.ensembles import EnsembleSpec, derive_seed, draw_operator
from nucrec.linalg import lstar_rank, numerical_rank
from nucrec.operators import MeasurementOperator, apply_op, as_matrix
from nucrec.solvers import SolverConfig
from oracles import rank1_angle_grid_value, htau_sigma_grid_2d, project_sigma_bisection


def tiny_op(seed, n1=2, n2=2, m=6, normalize=True):
    return draw_operator(EnsembleSpec("gaussian", n1, n2, m, seed=seed, normalize=normalize))


def entry_basis_op(n):
    return MeasurementOperator(np.eye(n * n).reshape(n * n, n, n))


class TestProjectHtau:
    def test_feasibility(self):
        rng = np.random.default_rng(0)
        for tau in (1.0, 1.5, 2.0, 2.7):
            x = project_htau(rng.standard_normal((3, 3)), tau)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
            assert lstar_rank(x) <= tau + 1e-9

    def test_tau_full_is_normalization(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 3))
        out = project_htau(x, 3.0)
        assert np.allclose(out, x / np.linalg.norm(x), atol=1e-9)

    def test_tau_one_gives_rank_one(self):
        rng = np.random.default_rng(2)
        out = project_htau(rng.standard_normal((3, 3)), 1.0)
        assert numerical_rank(out, 1e-9) == 1

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2))
        tau = 1.4
        out = project_htau(x, tau)
        sig = np.linalg.svd(x, compute_uv=False)
        s_oracle = htau_sigma_grid_2d(sig / np.linalg.norm(sig), tau)
        s_got = np.linalg.svd(out, compute_uv=False)
        assert np.allclose(np.sort(s_got), np.sort(s_oracle), atol=2e-3)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            project_htau(np.eye(2), 0.5)
        with pytest.raises(ValueError):
            project_htau(np.eye(2), 2.5)

    @pytest.mark.parametrize("x, tau", [(np.eye(2), 1.5), (np.eye(3), 2.0), (np.eye(4), 2.5)])
    def test_exactly_tied_singular_values(self, x, tau):
        # a tied top group larger than tau has no soft threshold
        out = project_htau(x, tau)
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        assert lstar_rank(out) <= tau * (1 + 1e-9)
        # every maximizer puts all its mass on the tied group
        assert np.trace(out) == pytest.approx(np.sqrt(tau), abs=1e-12)


@st.composite
def sigma_rows(draw):
    """Nonincreasing nonnegative rows with generic values, near-ties, exact
    ties or trailing zeros, and a tau in [1, n] leaning on its ends."""
    n = draw(st.integers(1, 10))
    values = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["generic", "near_ties", "exact_ties", "trailing_zeros"]))
    if kind == "near_ties":
        ulps = np.cumsum(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        values = values[0] - ulps * np.spacing(values[0])
    elif kind == "exact_ties":
        values = np.round(values, 1) + 0.05
    elif kind == "trailing_zeros":
        values[draw(st.integers(1, n)):] = 0.0
    row = np.sort(values)[::-1]
    tau = draw(
        st.one_of(
            st.floats(1.0, float(n)),
            st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-9, float(n), max(1.0, n - 1e-12)]),
        )
    )
    return row, tau


class TestProjectSingularValues:
    @settings(max_examples=300, deadline=None)
    @given(sigma_rows())
    def test_feasible_and_optimal_against_bisection(self, case):
        row, tau = case
        s = _project_singular_values(row[None, :], tau)[0]
        ref = project_sigma_bisection(row, tau)
        unit = row / np.linalg.norm(row)
        assert np.all(np.isfinite(s)) and np.all(s >= 0)
        assert abs(np.linalg.norm(s) - 1.0) <= 1e-12
        assert np.sum(s) <= np.sqrt(tau) * (1 + 1e-12)
        # ties make the maximizer non-unique: compare alignments, not vectors
        assert s @ unit >= float(ref @ unit.astype(np.longdouble)) - 1e-12

    def test_rows_are_independent(self):
        rng = np.random.default_rng(4)
        rows = -np.sort(-rng.random((6, 5)), axis=1)
        rows[2] = [0.5, 0.5, 0.5, 0.1, 0.0]
        batch = _project_singular_values(rows, 2.2)
        for row, got in zip(rows, batch):
            assert np.array_equal(got, _project_singular_values(row[None, :], 2.2)[0])


class TestEstimateCmsv:
    def test_isometry_gives_one(self):
        op = entry_basis_op(2)
        for direction in ("min", "max"):
            est = estimate_cmsv(op, 1.5, direction, starts=4, seed=0)
            assert est.value == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_matches_angle_grid(self):
        op = tiny_op(seed=5)
        for direction in ("min", "max"):
            est = estimate_cmsv(op, 1.0, direction, starts=8, seed=1)
            oracle = rank1_angle_grid_value(op.matrices, direction)
            assert est.value == pytest.approx(oracle, abs=5e-3)

    def test_evidence_and_witness(self):
        op = tiny_op(seed=6)
        est = estimate_cmsv(op, 1.5, "min", starts=4, seed=2)
        assert est.evidence == "upper_bound_on_min"
        assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-9)
        assert est.value == pytest.approx(
            np.linalg.norm(apply_op(op, est.witness)), abs=1e-12
        )
        est2 = estimate_cmsv(op, 1.5, "max", starts=4, seed=2)
        assert est2.evidence == "lower_bound_on_max"
        assert est.value <= est2.value

    def test_deterministic(self):
        op = tiny_op(seed=7)
        a = estimate_cmsv(op, 1.8, "min", starts=6, seed=3)
        b = estimate_cmsv(op, 1.8, "min", starts=6, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.witness, b.witness)

    def test_monotone_in_tau(self):
        # a larger feasible set can only lower the min and raise the max
        op = tiny_op(seed=8)
        mins = [estimate_cmsv(op, t, "min", starts=8, seed=4).value for t in (1.0, 1.5, 2.0)]
        maxs = [estimate_cmsv(op, t, "max", starts=8, seed=4).value for t in (1.0, 1.5, 2.0)]
        assert mins[0] >= mins[1] - 1e-6 >= mins[2] - 2e-6
        assert maxs[0] <= maxs[1] + 1e-6 <= maxs[2] + 2e-6

    def test_per_start_values_from_the_gram_path(self):
        op = tiny_op(seed=10, n1=3, n2=3, m=20)
        est = estimate_cmsv(op, 2.0, "max", starts=5, seed=1)
        assert len(est.per_start_values) == 5
        assert max(est.per_start_values) == pytest.approx(est.value, rel=1e-12)

    @pytest.mark.parametrize("n, m, tau", [(2, 3, 2.0), (3, 4, 3.0)], ids=["gram", "flat"])
    def test_per_start_values_exact_near_zero(self, n, m, tau):
        # A has a null space and tau = n_min makes all of it feasible, so the
        # minimum is 0 and the starts end far below sqrt(eps) * sigma_max,
        # where sqrt(<X, G(X)>) is rounding noise
        op = tiny_op(seed=12, n1=n, n2=n, m=m)
        est = estimate_cmsv(op, tau, "min", starts=4, seed=2)
        sigma_max = np.sqrt(op.gram_norm)
        assert est.value <= 1e-6 * sigma_max
        best = int(np.argmin(est.per_start_values))
        assert abs(est.per_start_values[best] - est.value) <= 1e-14 * sigma_max

    def test_stop_reasons(self):
        op = tiny_op(seed=11, n1=3, n2=3, m=20)
        capped = estimate_cmsv(op, 2.0, "min", starts=4, seed=0, cfg=SolverConfig(max_iters=5))
        assert (capped.iterations, capped.stop_reason) == (5, "cap")
        # orthonormal rows: every feasible point has the same value
        converged = estimate_cmsv(entry_basis_op(3), 2.0, "min", starts=4, seed=0)
        assert converged.stop_reason == "tolerance" and 1 <= converged.iterations < 300
        zero = estimate_cmsv(MeasurementOperator(np.zeros((4, 2, 2))), 1.5, "min", starts=3)
        assert (zero.iterations, zero.stop_reason, zero.value) == (0, "degenerate", 0.0)
        # the oracle runs no sweeps: its exact path says so, its sampling path is silent
        assert brute_force_cmsv(op, 3.0, "min").stop_reason == "exact"
        sampled = brute_force_cmsv(op, 2.0, "min", samples=10_000, refine=False)
        assert (sampled.stop_reason, sampled.evidence) == (None, "upper_bound_on_min")
        # alternating sweeps report the longest start and any start's cap
        rcsv = estimate_rcsv(op, 1, "min", starts=2)
        assert rcsv.stop_reason == "tolerance" and 2 <= rcsv.iterations < 40
        # m < n1*n2: the quotient creeps towards a null-space minimum of 0
        rcsv_capped = estimate_rcsv(tiny_op(seed=0, n1=4, n2=4, m=10), 2, "min", starts=2)
        assert (rcsv_capped.iterations, rcsv_capped.stop_reason) == (40, "cap")

    def test_converges_within_default_budget(self):
        # criterion 10's Gaussian 8x8 operators at m=64, where lambda_max is
        # far above rho_min^2 and the fixed step alone creeps
        for t in range(3):
            s = derive_seed(1000, t)
            op = draw_operator(EnsembleSpec("gaussian", 8, 8, 64, seed=s, normalize=True))
            for direction in ("min", "max"):
                est = estimate_cmsv(op, 2.0, direction, starts=8, seed=derive_seed(s, 1))
                assert est.stop_reason == "tolerance" and est.iterations < 300

    def test_roundoff_level_minimum_stops_on_tolerance(self):
        # criterion 08's 2x2, m=3 operator: the minimum is 0 (m < n1*n2), and
        # values below the 1e-8*sigma_max accuracy of the sweeps' norms move
        # by more than rel_tol times themselves on every sweep
        op = tiny_op(seed=derive_seed(800, 4), m=3)
        est = estimate_cmsv(op, 2.0, "min", starts=32, seed=derive_seed(802, 4))
        assert est.stop_reason == "tolerance" and est.iterations < 300
        assert est.value <= 1e-8 * np.sqrt(op.gram_norm)

    def test_bad_args(self):
        op = tiny_op(seed=9)
        with pytest.raises(ValueError):
            estimate_cmsv(op, 1.5, "both")
        with pytest.raises(ValueError):
            estimate_cmsv(op, 5.0, "min")
        with pytest.raises(ValueError):
            estimate_cmsv(op, 1.5, "min", starts=0)


class TestBruteForce:
    def test_matches_estimator(self):
        op = tiny_op(seed=10)
        for direction in ("min", "max"):
            bf = brute_force_cmsv(op, 1.6, direction, samples=20_000, seed=0)
            est = estimate_cmsv(op, 1.6, direction, starts=8, seed=0)
            assert abs(bf.value - est.value) <= 0.02 * max(bf.value, est.value, 0.02)

    def test_size_guard(self):
        op = draw_operator(EnsembleSpec("gaussian", 4, 3, 5, seed=0))
        with pytest.raises(ValueError):
            brute_force_cmsv(op, 1.5, "min")

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            brute_force_cmsv(tiny_op(seed=11), 1.5, "min", samples=100)

    def test_refine_off_is_shared_sample(self):
        # with refine disabled, a common seed evaluates both operators on the
        # same feasible points, so |value(A) - value(B)| <= max_x |f_A - f_B|
        op_a = tiny_op(seed=12)
        pert = np.zeros_like(op_a.matrices)
        pert[0, 0, 0] = 0.05
        op_b = MeasurementOperator(op_a.matrices + pert)
        a = brute_force_cmsv(op_a, 1.5, "min", samples=10_000, seed=7, refine=False)
        b = brute_force_cmsv(op_b, 1.5, "min", samples=10_000, seed=7, refine=False)
        # Lipschitz bound: |||A(X)|| - ||B(X)||| <= ||A-B||_op * ||X||_F
        diff_op = np.linalg.norm((op_a.matrices - op_b.matrices).reshape(op_a.m, -1), 2)
        assert abs(a.value - b.value) <= diff_op + 1e-9

    def test_witness_feasible(self):
        bf = brute_force_cmsv(tiny_op(seed=13), 1.3, "max", samples=10_000, seed=1)
        assert np.linalg.norm(bf.witness) == pytest.approx(1.0, abs=1e-9)
        assert lstar_rank(bf.witness) <= 1.3 + 1e-9


class TestBruteForceExact:
    """At tau = n_min the constraint is vacuous: one SVD gives the value."""

    @pytest.mark.parametrize("n1, n2, m", [(2, 2, 6), (3, 3, 12), (1, 3, 5)])
    def test_matches_operator_svd(self, n1, n2, m):
        op = tiny_op(seed=20, n1=n1, n2=n2, m=m)
        sv = np.linalg.svd(as_matrix(op), compute_uv=False)
        lo = brute_force_cmsv(op, float(min(n1, n2)), "min")
        hi = brute_force_cmsv(op, float(min(n1, n2)), "max")
        assert lo.value == pytest.approx(sv[-1], rel=1e-12, abs=0)
        assert hi.value == pytest.approx(sv[0], rel=1e-12, abs=0)

    def test_fewer_measurements_than_entries(self):
        # m < n1*n2: the operator has a null space, so the minimum is zero
        op = tiny_op(seed=21, n1=3, n2=3, m=6)
        assert brute_force_cmsv(op, 3.0, "min").value == 0.0

    def test_numerically_rank_deficient_is_zero(self):
        # m >= n1*n2 but repeated measurements leave a null space
        half = tiny_op(seed=24, n1=3, n2=3, m=6).matrices
        op = MeasurementOperator(np.concatenate([half, 2.0 * half]))
        est = brute_force_cmsv(op, 3.0, "min")
        assert est.value == 0.0
        assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-12)
        assert brute_force_cmsv(op, 3.0, "max").value > 0.0

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_witness_unit_and_feasible(self, direction):
        op = tiny_op(seed=22, n1=3, n2=3, m=12)
        est = brute_force_cmsv(op, 3.0, direction)
        assert (est.evidence, est.stop_reason) == ("exact", "exact")
        assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-12)
        assert lstar_rank(est.witness) <= 3.0 * (1 + 1e-9)
        assert est.value == np.linalg.norm(apply_op(op, est.witness))

    def test_argument_checks_still_apply(self):
        op = tiny_op(seed=23)
        with pytest.raises(ValueError):
            brute_force_cmsv(op, 2.0, "min", samples=100)
        with pytest.raises(ValueError):
            brute_force_cmsv(op, 2.0, "median")
        with pytest.raises(ValueError):
            brute_force_cmsv(draw_operator(EnsembleSpec("gaussian", 4, 3, 5, seed=0)), 3.0, "min")


class TestEstimateRcsv:
    def test_full_rank_matches_spectrum(self):
        op = tiny_op(seed=14, m=8)
        a = op.matrices.reshape(op.m, -1)
        sv = np.linalg.svd(a, compute_uv=False)
        lo = estimate_rcsv(op, 2, "min", starts=6, seed=0)
        hi = estimate_rcsv(op, 2, "max", starts=6, seed=0)
        assert lo.value == pytest.approx(sv[-1], rel=1e-4)
        assert hi.value == pytest.approx(sv[0], rel=1e-4)

    def test_rank_one_matches_angle_grid(self):
        op = tiny_op(seed=15)
        for direction in ("min", "max"):
            est = estimate_rcsv(op, 1, direction, starts=6, seed=1)
            oracle = rank1_angle_grid_value(op.matrices, direction)
            assert est.value == pytest.approx(oracle, abs=5e-3)

    def test_sandwich_against_cmsv(self):
        # rank <= r implies the nuclear-norm-ratio is <= r, so the
        # rank-constrained extremes lie inside the ratio-constrained ones
        op = tiny_op(seed=16, n1=3, n2=3, m=12)
        r = 2
        rho_min = estimate_cmsv(op, float(r), "min", starts=12, seed=2).value
        rho_max = estimate_cmsv(op, float(r), "max", starts=12, seed=2).value
        nu_min = estimate_rcsv(op, r, "min", starts=8, seed=2).value
        nu_max = estimate_rcsv(op, r, "max", starts=8, seed=2).value
        assert rho_min <= nu_min + 5e-3
        assert nu_min <= nu_max + 1e-12
        assert nu_max <= rho_max + 5e-3

    def test_witness_rank(self):
        op = tiny_op(seed=17, n1=3, n2=3, m=10)
        est = estimate_rcsv(op, 1, "max", starts=4, seed=3)
        assert numerical_rank(est.witness, 1e-9) <= 1
        assert np.linalg.norm(est.witness) == pytest.approx(1.0, abs=1e-9)

    def test_bad_args(self):
        op = tiny_op(seed=18)
        with pytest.raises(ValueError):
            estimate_rcsv(op, 0, "min")
        with pytest.raises(ValueError):
            estimate_rcsv(op, 3, "min")
        with pytest.raises(ValueError):
            estimate_rcsv(op, 1, "median")


class TestMricUpperBound:
    def test_perfect_isometry(self):
        assert mric_upper_bound(1.0, 1.0) == 0.0

    def test_asymmetric(self):
        assert mric_upper_bound(0.8, 1.1) == pytest.approx(max(1 - 0.64, 1.21 - 1))

    def test_lower_side_dominates(self):
        assert mric_upper_bound(0.5, 1.0) == pytest.approx(0.75)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            mric_upper_bound(1.2, 1.0)
        with pytest.raises(ValueError):
            mric_upper_bound(-0.1, 1.0)


class TestEstimateValidation:
    def test_bad_witness_norm(self):
        with pytest.raises(ValueError):
            Estimate(tau=2.0, direction="min", value=1.0,
                     witness=np.eye(2), starts=1)

    def test_bad_witness_constraint(self):
        with pytest.raises(ValueError):
            Estimate(tau=1.0, direction="min", value=1.0,
                     witness=np.eye(2) / np.sqrt(2), starts=1)

    def test_bad_witness_rank(self):
        with pytest.raises(ValueError):
            Estimate(r=1, direction="min", value=1.0,
                     witness=np.eye(2) / np.sqrt(2), starts=1)
        est = Estimate(r=2, direction="min", value=1.0, witness=np.eye(2) / np.sqrt(2), starts=1)
        assert est.tau is None

    @pytest.mark.parametrize("constraint", [{}, {"tau": 2.0, "r": 2}])
    def test_exactly_one_constraint(self, constraint):
        with pytest.raises(ValueError):
            Estimate(direction="min", value=1.0, witness=np.eye(2) / np.sqrt(2), starts=1, **constraint)

    def test_evidence_derived_from_direction(self):
        w = np.eye(2) / np.sqrt(2)
        est = Estimate(tau=2.0, direction="max", value=1.0, witness=w, starts=1)
        assert est.evidence == "lower_bound_on_max"
        with pytest.raises(TypeError):
            Estimate(tau=2.0, direction="max", value=1.0, witness=w, starts=1, evidence="upper_bound_on_min")

    def test_estimators_share_the_type(self):
        op = tiny_op(seed=19, n1=3, n2=3, m=12)
        rho = estimate_cmsv(op, 2.0, "min", starts=2, seed=0)
        nu = estimate_rcsv(op, 1, "max", starts=2, seed=0)
        exact = brute_force_cmsv(op, 3.0, "min")
        assert all(type(e) is Estimate for e in (rho, nu, exact))
        assert (rho.tau, rho.r) == (2.0, None)
        assert (nu.tau, nu.r) == (None, 1)
        assert nu.evidence == "lower_bound_on_max"
