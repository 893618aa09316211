import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nucrec.operators import (
    MeasurementOperator,
    apply_op,
    adjoint,
    scale,
    gram_apply,
    as_matrix,
    make_scenario,
)
from oracles import tensordot_adjoint, tensordot_apply, vectorized_apply


def random_op(rng, n1, n2, m):
    return MeasurementOperator(rng.standard_normal((m, n1, n2)))


@st.composite
def operators_with_inputs(draw):
    m, n1, n2 = draw(st.integers(1, 24)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    mats = draw(hnp.arrays(np.float64, (m, n1, n2), elements=entries))
    x = draw(hnp.arrays(np.float64, (n1, n2), elements=entries))
    z = draw(hnp.arrays(np.float64, (m,), elements=entries))
    return MeasurementOperator(mats), x, z


class TestApply:
    def test_zero_input(self):
        op = random_op(np.random.default_rng(0), 2, 3, 5)
        assert np.allclose(apply_op(op, np.zeros((2, 3))), 0)

    def test_trace_inner_product(self):
        op = MeasurementOperator(np.eye(2)[None, :, :])
        y = apply_op(op, np.diag([2.5, -1.0]))
        assert np.allclose(y, [1.5])

    def test_matches_vectorized_oracle(self):
        rng = np.random.default_rng(1)
        op = random_op(rng, 3, 4, 7)
        x = rng.standard_normal((3, 4))
        assert np.allclose(apply_op(op, x), vectorized_apply(op.matrices, x), atol=1e-12)

    def test_shape_mismatch(self):
        op = random_op(np.random.default_rng(2), 2, 2, 3)
        with pytest.raises(ValueError):
            apply_op(op, np.zeros((3, 2)))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        op = random_op(rng, 3, 3, 6)
        x, y = rng.standard_normal((2, 3, 3))
        lhs = apply_op(op, 2.0 * x - 0.5 * y)
        rhs = 2.0 * apply_op(op, x) - 0.5 * apply_op(op, y)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestAdjoint:
    def test_zero(self):
        op = random_op(np.random.default_rng(4), 2, 2, 3)
        assert np.allclose(adjoint(op, np.zeros(3)), 0)

    def test_basis_vector_selects_matrix(self):
        rng = np.random.default_rng(5)
        op = random_op(rng, 2, 3, 4)
        e2 = np.zeros(4)
        e2[2] = 1.0
        assert np.allclose(adjoint(op, e2), op.matrices[2])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(6)
        op = random_op(rng, 3, 4, 8)
        for _ in range(50):
            x = rng.standard_normal((3, 4))
            z = rng.standard_normal(8)
            lhs = apply_op(op, x) @ z
            rhs = np.tensordot(x, adjoint(op, z))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_length_mismatch(self):
        op = random_op(np.random.default_rng(7), 2, 2, 3)
        with pytest.raises(ValueError):
            adjoint(op, np.zeros(4))


class TestScaleAndGram:
    def test_scale_identity(self):
        op = random_op(np.random.default_rng(8), 2, 2, 3)
        assert np.array_equal(scale(op, 1.0).matrices, op.matrices)

    def test_scale_zero(self):
        op = random_op(np.random.default_rng(9), 2, 2, 3)
        assert np.all(scale(op, 0.0).matrices == 0)

    def test_scale_commutes_with_apply(self):
        rng = np.random.default_rng(10)
        op = random_op(rng, 3, 3, 9)
        x = rng.standard_normal((3, 3))
        c = 1.0 / np.sqrt(op.m)
        assert np.allclose(apply_op(scale(op, c), x), c * apply_op(op, x), rtol=1e-12)

    def test_gram_zero(self):
        op = random_op(np.random.default_rng(11), 2, 3, 4)
        assert np.allclose(gram_apply(op, np.zeros((2, 3))), 0)

    def test_gram_quadratic_form(self):
        rng = np.random.default_rng(12)
        op = random_op(rng, 3, 3, 5)
        x = rng.standard_normal((3, 3))
        lhs = np.tensordot(gram_apply(op, x), x)
        rhs = np.linalg.norm(apply_op(op, x)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gram_self_adjoint(self):
        rng = np.random.default_rng(13)
        op = random_op(rng, 3, 3, 5)
        x, y = rng.standard_normal((2, 3, 3))
        lhs = np.tensordot(gram_apply(op, x), y)
        rhs = np.tensordot(x, gram_apply(op, y))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(operators_with_inputs())
    def test_flat_matmul_equals_tensordot_bitwise(self, case):
        op, x, z = case
        assert np.array_equal(apply_op(op, x), tensordot_apply(op.matrices, x))
        assert np.array_equal(adjoint(op, z), tensordot_adjoint(op.matrices, z))
        gram = tensordot_adjoint(op.matrices, tensordot_apply(op.matrices, x))
        assert np.array_equal(gram_apply(op, x), gram)

    def test_flat_is_a_view(self):
        op = random_op(np.random.default_rng(16), 2, 3, 4)
        assert op.flat.shape == (4, 6)
        assert np.shares_memory(op.flat, op.matrices)
        assert not op.flat.flags.writeable

    def test_as_matrix_consistent(self):
        rng = np.random.default_rng(14)
        op = random_op(rng, 2, 3, 4)
        x = rng.standard_normal((2, 3))
        assert np.allclose(as_matrix(op) @ x.reshape(-1), apply_op(op, x))

    def test_as_matrix_is_the_read_only_view(self):
        op = random_op(np.random.default_rng(17), 2, 3, 4)
        mat = as_matrix(op)
        assert mat.shape == (4, 6)
        assert np.shares_memory(mat, op.matrices)
        assert not mat.flags.writeable


class TestGramCache:
    @pytest.mark.parametrize("m", [5, 12, 30], ids=["m<n", "m=n", "m>n"])
    def test_gram_norm_is_the_squared_top_singular_value(self, m):
        op = random_op(np.random.default_rng(m), 3, 4, m)
        top = np.linalg.svd(op.flat, compute_uv=False)[0]
        assert op.gram_norm == pytest.approx(top**2, rel=1e-12)

    def test_zero_operator(self):
        assert MeasurementOperator(np.zeros((4, 2, 3))).gram_norm == 0.0

    @pytest.mark.parametrize("m", [4, 5, 12], ids=["flat", "2m=n", "gram"])
    def test_gram_rows(self, m):
        op = random_op(np.random.default_rng(m), 2, 5, m)
        rows = np.random.default_rng(0).standard_normal((3, 10))
        ref = (rows @ op.flat.T) @ op.flat
        assert np.allclose(op.gram_rows(rows), ref, rtol=0, atol=1e-12)
        assert np.allclose(op.gram_rows(rows[0]), ref[0], rtol=0, atol=1e-12)
        # below 2m = n1*n2 the map goes through flat and never builds gram
        assert ("gram" in op.__dict__) == (2 * m >= 10)

    def test_gram_is_cached_and_read_only(self):
        op = random_op(np.random.default_rng(1), 2, 3, 5)
        assert op.gram is op.gram
        assert np.allclose(op.gram, op.flat.T @ op.flat, rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            op.gram[0, 0] = 1.0


class TestScenario:
    def test_noiseless(self):
        rng = np.random.default_rng(15)
        op = random_op(rng, 2, 2, 4)
        x = rng.standard_normal((2, 2))
        scn = make_scenario(op, x)
        assert np.allclose(scn.y, apply_op(op, x))

    def test_bounded_noise_within_budget(self):
        rng = np.random.default_rng(16)
        op = random_op(rng, 2, 2, 4)
        x = rng.standard_normal((2, 2))
        scn = make_scenario(op, x, "bounded", epsilon=0.3, seed=1)
        assert np.linalg.norm(scn.y - apply_op(op, x)) <= 0.3 + 1e-12
        with pytest.raises(ValueError, match="exceeds epsilon"):
            make_scenario(op, x, "bounded", epsilon=-0.3, seed=1)

    def test_gaussian_noise_reproducible(self):
        rng = np.random.default_rng(17)
        op = random_op(rng, 2, 2, 4)
        x = rng.standard_normal((2, 2))
        a = make_scenario(op, x, "gaussian", sigma=0.5, seed=9)
        b = make_scenario(op, x, "gaussian", sigma=0.5, seed=9)
        assert np.array_equal(a.y, b.y)
