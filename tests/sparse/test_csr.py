"""Unit and property tests for the CSR core, with scipy as oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CsrMatrix, diags, eye
from tests.conftest import random_csr


class TestConstruction:
    def test_from_coo_sums_duplicates(self):
        a = CsrMatrix.from_coo(
            np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 4.0]), (2, 2)
        )
        assert a.nnz == 2
        assert a.todense()[0, 1] == 5.0
        assert a.todense()[1, 0] == 4.0

    def test_from_dense_roundtrip(self, rng):
        d = rng.standard_normal((7, 5))
        d[np.abs(d) < 0.7] = 0.0
        a = CsrMatrix.from_dense(d)
        np.testing.assert_allclose(a.todense(), d)

    def test_from_dense_tolerance(self):
        d = np.array([[1.0, 1e-12], [0.0, 2.0]])
        a = CsrMatrix.from_dense(d, tol=1e-9)
        assert a.nnz == 2

    def test_empty_matrix(self):
        a = CsrMatrix.from_coo(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), (3, 4)
        )
        assert a.nnz == 0
        assert a.matvec(np.ones(4)).shape == (3,)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(IndexError):
            CsrMatrix.from_coo(np.array([0]), np.array([5]), np.array([1.0]), (2, 2))

    def test_scipy_interop_roundtrip(self):
        a = random_csr(6, 8, seed=3)
        back = CsrMatrix.from_scipy(a.to_scipy())
        np.testing.assert_allclose(back.todense(), a.todense())


class TestOperations:
    @pytest.mark.parametrize("seed", range(5))
    def test_matvec_matches_scipy(self, seed, rng):
        a = random_csr(9, 7, seed=seed)
        x = rng.standard_normal(7)
        np.testing.assert_allclose(a.matvec(x), a.to_scipy() @ x)

    def test_matvec_with_empty_rows(self):
        a = CsrMatrix.from_coo(np.array([2]), np.array([0]), np.array([3.0]), (4, 2))
        out = a.matvec(np.array([2.0, 5.0]))
        np.testing.assert_allclose(out, [0, 0, 6.0, 0])

    def test_matmat_multiple_rhs(self, rng):
        a = random_csr(6, 6, seed=1)
        x = rng.standard_normal((6, 3))
        np.testing.assert_allclose(a.matmat(x), a.to_scipy() @ x)

    def test_rmatvec_is_transpose_product(self, rng):
        a = random_csr(6, 9, seed=2)
        y = rng.standard_normal(6)
        np.testing.assert_allclose(a.rmatvec(y), a.to_scipy().T @ y)

    def test_transpose_matches_scipy(self):
        a = random_csr(5, 8, seed=4)
        np.testing.assert_allclose(a.T.todense(), a.to_scipy().T.toarray())
        assert a.T.is_sorted()

    def test_double_transpose_identity(self):
        a = random_csr(7, 7, seed=5)
        np.testing.assert_allclose(a.T.T.todense(), a.todense())

    def test_diagonal(self):
        a = random_csr(6, 6, seed=6, ensure_diag=True)
        np.testing.assert_allclose(a.diagonal(), a.to_scipy().diagonal())

    def test_diagonal_rectangular(self):
        a = random_csr(4, 7, seed=7)
        np.testing.assert_allclose(a.diagonal(), a.to_scipy().diagonal())

    def test_scale_rows_cols(self, rng):
        a = random_csr(5, 6, seed=8)
        d_r = rng.standard_normal(5)
        d_c = rng.standard_normal(6)
        np.testing.assert_allclose(
            a.scale_rows(d_r).todense(), np.diag(d_r) @ a.todense()
        )
        np.testing.assert_allclose(
            a.scale_cols(d_c).todense(), a.todense() @ np.diag(d_c)
        )

    def test_scalar_multiply(self):
        a = random_csr(4, 4, seed=9)
        np.testing.assert_allclose((2.5 * a).todense(), 2.5 * a.todense())

    def test_add_sub(self):
        a = random_csr(5, 5, seed=10)
        b = random_csr(5, 5, seed=11)
        np.testing.assert_allclose((a + b).todense(), a.todense() + b.todense())
        np.testing.assert_allclose((a - b).todense(), a.todense() - b.todense())

    def test_eliminate_zeros(self):
        a = random_csr(5, 5, seed=12)
        b = a - a
        assert b.eliminate_zeros().nnz == 0

    def test_pattern_values_are_one(self):
        a = random_csr(5, 5, seed=13)
        assert np.all(a.pattern().data == 1.0)

    def test_bandwidth(self):
        a = CsrMatrix.from_dense(np.tril(np.ones((5, 5)), -2))
        assert a.bandwidth() == 4
        assert eye(3).bandwidth() == 0

    def test_norm_fro(self):
        a = random_csr(6, 6, seed=14)
        assert a.norm_fro() == pytest.approx(np.linalg.norm(a.todense(), "fro"))

    def test_astype_float32(self):
        a = random_csr(4, 4, seed=15)
        b = a.astype(np.float32)
        assert b.dtype == np.float32
        np.testing.assert_allclose(b.todense(), a.todense(), rtol=1e-6)


class TestHelpers:
    def test_eye(self):
        np.testing.assert_allclose(eye(4).todense(), np.eye(4))

    def test_diags(self):
        d = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(diags(d).todense(), np.diag(d))

    def test_row_access(self):
        a = random_csr(5, 5, seed=16, ensure_diag=True)
        cols, vals = a.row(2)
        dense = a.todense()
        np.testing.assert_allclose(dense[2, cols], vals)


class TestOperandShape:
    """A mis-sized operand or ``out=`` raises ``ValueError`` naming the
    kernel and both shapes, instead of a silently truncated result or a
    bare ``IndexError`` from the column gather."""

    @pytest.fixture
    def a(self):
        return random_csr(5, 7, seed=17)  # matvec takes 7 entries, rmatvec 5

    @pytest.mark.parametrize("delta", [1, -1])
    def test_matvec(self, a, delta):
        with pytest.raises(ValueError, match=rf"matvec: operand shape \({7 + delta},\).*5x7"):
            a.matvec(np.ones(7 + delta))

    @pytest.mark.parametrize("delta", [1, -1])
    def test_matmat(self, a, delta):
        with pytest.raises(ValueError, match=rf"matmat: operand shape \({7 + delta}, 2\).*5x7"):
            a.matmat(np.ones((7 + delta, 2)))

    def test_matmat_rejects_three_dimensional_operand(self, a):
        with pytest.raises(ValueError, match=r"matmat: operand shape \(7, 2, 2\)"):
            a.matmat(np.ones((7, 2, 2)))

    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("columns", [None, 2])
    def test_rmatvec(self, a, delta, columns):
        y = np.ones(5 + delta if columns is None else (5 + delta, columns))
        with pytest.raises(ValueError, match=r"rmatvec: operand shape .*5x7"):
            a.rmatvec(y)

    @pytest.mark.parametrize("size", [4, 6])
    def test_matvec_out(self, a, size):
        with pytest.raises(ValueError, match=rf"matvec: out shape \({size},\).*5x7"):
            a.matvec(np.ones(7), out=np.zeros(size))

    def test_square_operator_off_by_one(self):
        a = random_csr(48, 48, seed=18, ensure_diag=True)
        for call in (
            lambda: a.matvec(np.ones(51)),
            lambda: a.matvec(np.ones(47)),
            lambda: a.rmatvec(np.ones(51)),
            lambda: a.matmat(np.ones((51, 2))),
            lambda: a.matvec(np.ones(48), out=np.zeros(50)),
        ):
            with pytest.raises(ValueError, match="48x48"):
                call()


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_property_matvec_linear(m, n, seed, data):
    """Matvec is linear: A(ax + by) == a Ax + b Ay."""
    a = random_csr(m, n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    al = data.draw(st.floats(-3, 3, allow_nan=False))
    be = data.draw(st.floats(-3, 3, allow_nan=False))
    lhs = a.matvec(al * x + be * y)
    rhs = al * a.matvec(x) + be * a.matvec(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 15), n=st.integers(1, 15), seed=st.integers(0, 1000))
def test_property_transpose_involution(m, n, seed):
    """Transpose twice is the identity, and (A^T)x == rmatvec."""
    a = random_csr(m, n, seed=seed)
    np.testing.assert_allclose(a.T.T.todense(), a.todense())
    x = np.random.default_rng(seed).standard_normal(m)
    np.testing.assert_allclose(a.T.matvec(x), a.rmatvec(x), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 500))
def test_property_coo_csr_roundtrip(n, seed):
    """COO -> CSR -> dense equals direct dense accumulation."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 4 * n))
    rows = rng.integers(0, n, k)
    cols = rng.integers(0, n, k)
    vals = rng.standard_normal(k)
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    a = CsrMatrix.from_coo(rows, cols, vals, (n, n))
    np.testing.assert_allclose(a.todense(), dense, atol=1e-12)
    assert a.is_sorted()
