"""Dtype-promotion regressions of the CSR value kernels.

Two seed bugs are pinned here:

* ``matvec(out=...)`` silently downcast a float64 product into a
  float32 buffer (the half-precision operator path); it now raises.
* ``matmat`` on a zero-nnz matrix read the result dtype off an empty
  product array (always float64) instead of promoting the operand
  dtypes, so deflated block-solver shards disagreed with ``matvec``.
"""

import numpy as np
import pytest

from repro.sparse.csr import CsrMatrix, _check_out_dtype


def small_csr(dtype=np.float64):
    d = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 4.0]])
    return CsrMatrix.from_dense(d.astype(dtype))


def zero_nnz_csr(dtype=np.float64):
    return CsrMatrix.from_dense(np.zeros((3, 3), dtype=dtype), tol=0.0)


class TestMatvecOut:
    def test_float32_out_for_float64_product_raises(self):
        a = small_csr(np.float64)
        x = np.ones(3, dtype=np.float64)
        out = np.empty(3, dtype=np.float32)
        with pytest.raises(TypeError, match="matvec"):
            a.matvec(x, out=out)

    def test_compatible_out_is_filled_and_returned(self):
        a = small_csr(np.float32)
        x = np.ones(3, dtype=np.float32)
        out = np.empty(3, dtype=np.float64)  # upcast buffer is fine
        res = a.matvec(x, out=out)
        assert res is out
        np.testing.assert_allclose(out, a.todense() @ x)

    def test_exact_dtype_out(self):
        a = small_csr(np.float64)
        x = np.ones(3)
        out = np.empty(3)
        assert a.matvec(x, out=out) is out


class TestPromotion:
    @pytest.mark.parametrize(
        "a_dtype,x_dtype",
        [
            (np.float32, np.float32),
            (np.float32, np.float64),
            (np.float64, np.float32),
            (np.float64, np.float64),
        ],
    )
    def test_matvec_result_type(self, a_dtype, x_dtype):
        a = small_csr(a_dtype)
        x = np.ones(3, dtype=x_dtype)
        assert a.matvec(x).dtype == np.result_type(a_dtype, x_dtype)

    @pytest.mark.parametrize(
        "a_dtype,x_dtype",
        [
            (np.float32, np.float32),
            (np.float32, np.float64),
            (np.float64, np.float32),
        ],
    )
    def test_matmat_result_type(self, a_dtype, x_dtype):
        a = small_csr(a_dtype)
        x = np.ones((3, 2), dtype=x_dtype)
        assert a.matmat(x).dtype == np.result_type(a_dtype, x_dtype)

    def test_matmat_zero_nnz_promotes_like_matvec(self):
        a = zero_nnz_csr(np.float32)
        x = np.ones((3, 2), dtype=np.float32)
        y = a.matmat(x)
        assert y.dtype == np.float32  # seed bug: empty product gave f64
        assert y.dtype == a.matvec(x[:, 0]).dtype
        np.testing.assert_array_equal(y, np.zeros((3, 2), dtype=np.float32))

    def test_rmatvec_preserves_float32(self):
        a = small_csr(np.float32)
        y = np.ones(3, dtype=np.float32)
        assert a.rmatvec(y).dtype == np.float32  # bincount would force f64
        np.testing.assert_allclose(a.rmatvec(y), a.todense().T @ y)


class TestCheckOutDtype:
    def test_safe_cast_passes(self):
        _check_out_dtype(np.dtype(np.float64), np.dtype(np.float32), "k")

    def test_downcast_raises(self):
        with pytest.raises(TypeError, match="k"):
            _check_out_dtype(np.dtype(np.float32), np.dtype(np.float64), "k")
