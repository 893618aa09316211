import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nucrec.linalg import (
    svd,
    nuclear_norm,
    frobenius_norm,
    operator_norm,
    numerical_rank,
    lstar_rank,
    prox_nuclear,
    decompose_error,
)
from oracles import jacobi_singular_values, prox_nuclear_grid_2x2


def random_matrix(rng, n1, n2, rank=None):
    if rank is None:
        return rng.standard_normal((n1, n2))
    return rng.standard_normal((n1, rank)) @ rng.standard_normal((rank, n2))


@st.composite
def small_matrices(draw):
    n1 = draw(st.integers(1, 5))
    n2 = draw(st.integers(1, 5))
    entries = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=n1 * n2,
            max_size=n1 * n2,
        )
    )
    return np.array(entries).reshape(n1, n2)


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(2))
        assert np.allclose(f.sigma, [1.0, 1.0])

    def test_diagonal(self):
        f = svd(np.diag([3.0, 0.0]))
        assert np.allclose(f.sigma, [3.0, 0.0])

    def test_factor_invariants(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4))
        f = svd(x)
        p = min(x.shape)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(p), 2) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(p), 2) <= 1e-10
        recon = (f.u * f.sigma) @ f.v.T
        assert np.linalg.norm(recon - x) <= 1e-10 * max(1, np.linalg.norm(x))
        assert np.all(np.diff(f.sigma) <= 0)
        assert np.all(f.sigma >= 0)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 4))
        assert np.allclose(svd(x).sigma, jacobi_singular_values(x), atol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestNorms:
    def test_nuclear_zero(self):
        assert nuclear_norm(np.zeros((3, 2))) == 0.0

    def test_nuclear_rank_one(self):
        u = np.array([0.6, 0.8])
        v = np.array([1.0, 0.0, 0.0])
        assert nuclear_norm(np.outer(u, v)) == pytest.approx(1.0)

    def test_nuclear_diag(self):
        assert nuclear_norm(np.diag([2.0, 1.0])) == pytest.approx(3.0)

    def test_diag_34(self):
        x = np.diag([3.0, 4.0])
        assert frobenius_norm(x) == pytest.approx(5.0)
        assert operator_norm(x) == pytest.approx(4.0)
        assert numerical_rank(x, 1e-9) == 2

    def test_zero_matrix(self):
        z = np.zeros((2, 3))
        assert frobenius_norm(z) == 0.0
        assert operator_norm(z) == 0.0
        assert nuclear_norm(z) == 0.0
        assert numerical_rank(z, 1e-9) == 0

    def test_norm_chain_seeded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
            op_n, fr, nuc = operator_norm(x), frobenius_norm(x), nuclear_norm(x)
            r = numerical_rank(x, 1e-12)
            assert op_n <= fr + 1e-12
            assert fr <= nuc + 1e-12
            assert nuc <= np.sqrt(r) * fr + 1e-9


class TestLstarRank:
    def test_rank_one(self):
        rng = np.random.default_rng(3)
        x = np.outer(rng.standard_normal(4), rng.standard_normal(5))
        assert lstar_rank(x) == pytest.approx(1.0, abs=1e-12)

    def test_identity(self):
        assert lstar_rank(np.eye(5)) == pytest.approx(5.0)

    def test_small_perturbation(self):
        eps = 1e-6
        tau = lstar_rank(np.diag([1.0, eps]))
        assert 1.0 < tau < 1.0 + 1e-5
        assert tau == pytest.approx((1 + eps) ** 2 / (1 + eps**2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 3))
        assert lstar_rank(3.7 * x) == pytest.approx(lstar_rank(x))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lstar_rank(np.zeros((2, 2)))

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n1 = int(rng.integers(2, 17))
            n2 = int(rng.integers(2, 25))
            r = int(rng.integers(1, min(n1, n2) + 1))
            x = random_matrix(rng, n1, n2, rank=r)
            assert lstar_rank(x) <= numerical_rank(x, 1e-9) + 1e-9

    def test_equality_for_flat_spectrum(self):
        rng = np.random.default_rng(13)
        for r in (1, 2, 3):
            q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            s = np.zeros(5)
            s[:r] = 2.3
            x = (q1 * s) @ q2[:, :5].T
            assert lstar_rank(x) == pytest.approx(r, abs=1e-9)


class TestProxNuclear:
    def test_zero_threshold_identity(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 3))
        assert np.allclose(prox_nuclear(x, 0.0), x, atol=1e-12)

    def test_diagonal_shrink(self):
        out = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((2, 2))
        oracle = prox_nuclear_grid_2x2(x, 0.5)
        assert np.linalg.norm(prox_nuclear(x, 0.5) - oracle) <= 2e-3

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_nuclear(np.eye(2), -0.1)

    @settings(max_examples=50, deadline=None)
    @given(small_matrices(), small_matrices(), st.floats(0, 5))
    def test_nonexpansive(self, x, y, t):
        if x.shape != y.shape:
            y = np.zeros_like(x)
        d_out = np.linalg.norm(prox_nuclear(x, t) - prox_nuclear(y, t))
        assert d_out <= np.linalg.norm(x - y) + 1e-9


class TestDecomposeError:
    def test_zero_x(self):
        h = np.arange(6.0).reshape(2, 3)
        h0, hc = decompose_error(h, np.zeros((2, 3)))
        assert np.allclose(h0, 0)
        assert np.allclose(hc, h)

    def test_full_overlap(self):
        rng = np.random.default_rng(23)
        x = random_matrix(rng, 5, 5, rank=2)
        u, _, vt = np.linalg.svd(x)
        h = u[:, :2] @ np.diag([1.0, -2.0]) @ vt[:2, :]
        h0, hc = decompose_error(h, x)
        assert np.linalg.norm(hc) <= 1e-10
        assert np.allclose(h0, h, atol=1e-10)

    def test_four_conditions(self):
        rng = np.random.default_rng(29)
        x = random_matrix(rng, 6, 6, rank=2)
        h = rng.standard_normal((6, 6))
        h0, hc = decompose_error(h, x)
        scale = max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(h - (h0 + hc)) <= 1e-8 * scale
        assert numerical_rank(h0, 1e-9) <= 2 * numerical_rank(x, 1e-9)
        assert np.linalg.norm(x @ hc.T) <= 1e-8 * scale
        assert np.linalg.norm(x.T @ hc) <= 1e-8 * scale
        assert abs(np.tensordot(h0, hc)) <= 1e-8 * scale**2

    def test_pythagoras(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = random_matrix(rng, 5, 7, rank=2)
            h = rng.standard_normal((5, 7))
            h0, hc = decompose_error(h, x)
            lhs = np.linalg.norm(h) ** 2
            rhs = np.linalg.norm(h0) ** 2 + np.linalg.norm(hc) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            decompose_error(np.zeros((2, 2)), np.zeros((3, 3)))


class TestNuclearAdditivity:
    def test_orthogonal_supports(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert nuclear_norm(a + b) == pytest.approx(nuclear_norm(a) + nuclear_norm(b))

    def test_decomposition_pieces(self):
        rng = np.random.default_rng(37)
        x = random_matrix(rng, 6, 6, rank=2)
        h = rng.standard_normal((6, 6))
        _, hc = decompose_error(h, x)
        scale = np.linalg.norm(x) * np.linalg.norm(hc)
        assert np.linalg.norm(x @ hc.T) <= 1e-8 * scale
        assert np.linalg.norm(x.T @ hc) <= 1e-8 * scale
        assert nuclear_norm(x + hc) == pytest.approx(
            nuclear_norm(x) + nuclear_norm(hc), rel=1e-8
        )
