"""Backend selection, resolution and the numpy-backend semantics."""

import numpy as np
import pytest
import scipy.linalg

from repro.backend import (
    Backend,
    NumpyBackend,
    available_backends,
    check_out_dtype,
    get_backend,
    resolve_backend,
    to_numpy,
    use_backend,
)


class TestSelection:
    def test_default_is_numpy(self):
        bk = get_backend()
        assert isinstance(bk, NumpyBackend)
        assert bk.is_numpy

    def test_numpy_operand_defers_to_ambient(self):
        x = np.ones(3)
        assert get_backend(x) is get_backend()

    def test_available_always_contains_numpy(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert names == ["numpy"]

    def test_resolve_none_is_ambient(self):
        assert resolve_backend(None) is get_backend()

    def test_resolve_by_name(self):
        assert isinstance(resolve_backend("numpy"), NumpyBackend)

    def test_resolve_instance_passthrough(self):
        bk = NumpyBackend()
        assert resolve_backend(bk) is bk

    def test_resolve_unknown_name_lists_valid_values(self):
        with pytest.raises(ValueError, match="valid values"):
            resolve_backend("cupy")

    def test_resolve_bad_type(self):
        with pytest.raises(TypeError, match="Backend instance"):
            resolve_backend(42)

    def test_torch_name_unavailable_raises(self):
        with pytest.raises(ValueError, match="unavailable.*valid values"):
            resolve_backend("torch")

    def test_use_backend_nesting(self):
        outer = NumpyBackend()
        inner = NumpyBackend()
        assert get_backend() is not outer
        with use_backend(outer):
            assert get_backend() is outer
            with use_backend(inner):
                assert get_backend() is inner
            assert get_backend() is outer
        assert isinstance(get_backend(), NumpyBackend)

    def test_use_backend_restores_on_error(self):
        bk = NumpyBackend()
        with pytest.raises(RuntimeError):
            with use_backend(bk):
                raise RuntimeError("boom")
        assert get_backend() is not bk

    def test_to_numpy_is_noop_on_numpy(self):
        x = np.arange(4.0)
        assert to_numpy(x) is x


class TestNumpySemantics:
    """The numpy backend is the literal pre-refactor expressions."""

    def setup_method(self):
        self.bk = resolve_backend("numpy")

    def test_is_backend(self):
        assert isinstance(self.bk, Backend)

    def test_segment_sum_matches_reduceat(self, rng):
        vals = rng.standard_normal(40)
        starts = np.array([0, 3, 10, 11, 25])
        np.testing.assert_array_equal(
            self.bk.segment_sum(vals, starts), np.add.reduceat(vals, starts)
        )

    def test_segment_sum_axis0_matches_reduceat(self, rng):
        vals = rng.standard_normal((40, 3))
        starts = np.array([0, 7, 9])
        np.testing.assert_array_equal(
            self.bk.segment_sum(vals, starts, axis=0),
            np.add.reduceat(vals, starts, axis=0),
        )

    def test_scatter_add_matches_bincount(self, rng):
        idx = rng.integers(0, 10, size=50)
        vals = rng.standard_normal(50)
        np.testing.assert_array_equal(
            self.bk.scatter_add(idx, vals, 10),
            np.bincount(idx, weights=vals, minlength=10),
        )

    def test_scatter_add_into_matches_add_at(self, rng):
        idx = rng.integers(0, 8, size=30)
        vals = rng.standard_normal(30).astype(np.float32)
        out = np.zeros(8, dtype=np.float32)
        ref = np.zeros(8, dtype=np.float32)
        np.add.at(ref, idx, vals)
        self.bk.scatter_add_into(out, idx, vals)
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == np.float32  # bincount would have forced f64

    def test_solve_triangular_matches_scipy(self, rng):
        a = np.tril(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_array_equal(
            self.bk.solve_triangular(a, b, lower=True),
            scipy.linalg.solve_triangular(a, b, lower=True, check_finite=False),
        )

    def test_gemv(self, rng):
        a = rng.standard_normal((4, 7))
        x = rng.standard_normal(7)
        np.testing.assert_array_equal(self.bk.gemv(a, x), a @ x)

    def test_astype_no_copy_when_same_dtype(self):
        x = np.arange(5.0)
        assert self.bk.astype(x, np.float64) is x

    def test_take_put(self):
        x = np.arange(10.0)
        idx = np.array([2, 4, 6])
        np.testing.assert_array_equal(self.bk.take(x, idx), x[idx])
        self.bk.put(x, idx, np.zeros(3))
        assert x[2] == x[4] == x[6] == 0.0

    def test_all_finite(self):
        assert self.bk.all_finite(np.ones(3))
        assert not self.bk.all_finite(np.array([1.0, np.nan]))

    def test_describe_mentions_numpy(self):
        assert "numpy" in self.bk.describe()


class TestCheckOutDtype:
    def test_safe_cast_passes(self):
        check_out_dtype(np.dtype(np.float64), np.dtype(np.float32), "k")

    def test_downcast_raises(self):
        with pytest.raises(TypeError, match="k"):
            check_out_dtype(np.dtype(np.float32), np.dtype(np.float64), "k")
