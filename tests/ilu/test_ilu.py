"""Incomplete factorizations: ILU(k) and FastILU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilu import FastIlu, IlukFactorization, iluk_symbolic
from repro.sparse import CsrMatrix
from tests.conftest import random_spd


class TestSymbolic:
    def test_level0_equals_matrix_pattern(self, small_laplace):
        a = small_laplace.a
        pptr, pind = iluk_symbolic(a, 0)
        assert pptr[-1] == a.nnz
        np.testing.assert_array_equal(pind, a.indices)

    def test_pattern_grows_with_level(self, small_laplace):
        a = small_laplace.a
        sizes = [iluk_symbolic(a, k)[1].size for k in range(4)]
        assert sizes == sorted(sizes)
        assert sizes[1] > sizes[0]

    def test_pattern_nested(self, small_laplace):
        a = small_laplace.a
        p0 = set(zip(*_pattern_pairs(*iluk_symbolic(a, 0))))
        p1 = set(zip(*_pattern_pairs(*iluk_symbolic(a, 1))))
        assert p0 <= p1

    def test_large_level_is_full_lu_pattern(self):
        a = random_spd(12, seed=0)
        from repro.ordering import symbolic_cholesky

        pptr, pind = iluk_symbolic(a, 12)
        lptr, lind, _ = symbolic_cholesky(a)
        # ILU(n) pattern contains the exact factor pattern (lower part)
        rows = np.repeat(np.arange(12), np.diff(pptr))
        ilu = set(zip(rows.tolist(), pind.tolist()))
        lrows = np.repeat(np.arange(12), np.diff(lptr))
        chol = set(zip(lrows.tolist(), lind.tolist()))
        assert chol <= ilu

    def test_diagonal_always_present(self):
        d = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        pptr, pind = iluk_symbolic(CsrMatrix.from_dense(d), 0)
        rows = np.repeat(np.arange(3), np.diff(pptr))
        for i in range(3):
            assert i in pind[rows == i]

    def test_rejects_negative_level(self, small_laplace):
        with pytest.raises(ValueError):
            iluk_symbolic(small_laplace.a, -1)


def _pattern_pairs(pptr, pind):
    rows = np.repeat(np.arange(pptr.size - 1), np.diff(pptr))
    return rows.tolist(), pind.tolist()


class TestIluk:
    def test_error_decreases_with_level(self, small_laplace):
        a = small_laplace.a
        n = a.n_rows
        errs = []
        for k in range(3):
            f = IlukFactorization(level=k).symbolic(a).numeric(a)
            l = f.l.todense() + np.eye(n)
            u = f.u.todense()
            errs.append(np.linalg.norm(a.todense() - l @ u))
        assert errs[2] < errs[1] < errs[0]

    def test_full_level_is_exact(self):
        a = random_spd(15, seed=1)
        f = IlukFactorization(level=15).symbolic(a).numeric(a)
        l = f.l.todense() + np.eye(15)
        np.testing.assert_allclose(l @ f.u.todense(), a.todense(), atol=1e-9)

    def test_ilu0_matches_reference(self):
        """IKJ ILU(0) against a dense reference implementation."""
        a = random_spd(12, seed=2)
        f = IlukFactorization(level=0).symbolic(a).numeric(a)
        d = a.todense()
        n = 12
        pattern = d != 0
        ref = d.copy()
        for i in range(1, n):
            for k in range(i):
                if not pattern[i, k]:
                    continue
                ref[i, k] /= ref[k, k]
                for j in range(k + 1, n):
                    if pattern[i, j] and pattern[k, j]:
                        ref[i, j] -= ref[i, k] * ref[k, j]
        got = f.l.todense() + f.u.todense()
        ref_masked = np.where(pattern, ref, 0.0)
        np.testing.assert_allclose(got, ref_masked, atol=1e-9)

    def test_ordering_option(self, small_laplace):
        a = small_laplace.a
        f = IlukFactorization(level=1, ordering="nd").symbolic(a).numeric(a)
        assert not np.array_equal(f.perm, np.arange(a.n_rows))
        assert f.l is not None and f.u is not None

    def test_zero_pivot_detected(self):
        d = np.array([[0.0, 1.0], [1.0, 1.0]])
        f = IlukFactorization(level=0)
        f.symbolic(CsrMatrix.from_dense(d))
        with pytest.raises(ZeroDivisionError):
            f.numeric(CsrMatrix.from_dense(d))

    def test_numeric_requires_symbolic(self, small_laplace):
        with pytest.raises(RuntimeError):
            IlukFactorization().numeric(small_laplace.a)

    def test_profiles_populated(self, small_laplace):
        f = IlukFactorization(level=1).symbolic(small_laplace.a).numeric(small_laplace.a)
        assert f.numeric_profile.total_flops > 0
        assert len(f.solve_profile_exact()) > 0


class TestFastIlu:
    def test_sweeps_converge_to_fixed_point(self, small_laplace):
        a = small_laplace.a
        res = []
        for sweeps in (0, 2, 6, 12):
            f = FastIlu(level=1, sweeps=sweeps).symbolic(a).numeric(a)
            res.append(f.residual_norm(a))
        assert res[-1] < res[0]
        assert res[2] < res[1]

    def test_converges_to_iluk_values(self, small_laplace):
        """The Chow-Patel fixed point IS the ILU(k) factorization."""
        a = small_laplace.a
        f = FastIlu(level=0, sweeps=60).symbolic(a).numeric(a)
        e = IlukFactorization(level=0).symbolic(a).numeric(a)
        s = f.row_scale
        # undo the symmetric scaling: L_unscaled = S^{-1} L S? No:
        # A = S^{-1} (S A S) S^{-1} = S^{-1} L U S^{-1}
        l_fast = np.diag(1 / s) @ (f.l.todense() + np.eye(a.n_rows))
        u_fast = f.u.todense() @ np.diag(1 / s)
        # compare products (factor normalization differs)
        np.testing.assert_allclose(
            l_fast @ u_fast,
            (e.l.todense() + np.eye(a.n_rows)) @ e.u.todense(),
            atol=1e-6,
        )

    def test_damping_stabilizes_stiff_block(self):
        """Undamped sweeps can diverge on elasticity blocks (the bug the
        damping knob of Table I exists to fix)."""
        from repro.fem import elasticity_3d

        a = elasticity_3d(5).a
        damped = FastIlu(level=1, sweeps=8, damping=0.7).symbolic(a).numeric(a)
        assert np.isfinite(damped.residual_norm(a))
        assert damped.residual_norm(a) < 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FastIlu(sweeps=-1)
        with pytest.raises(ValueError):
            FastIlu(damping=0.0)
        with pytest.raises(ValueError):
            FastIlu(damping=1.5)

    def test_profile_one_kernel_per_sweep(self, small_laplace):
        f = FastIlu(level=0, sweeps=4).symbolic(small_laplace.a).numeric(small_laplace.a)
        assert len(f.numeric_profile) == 4
        for k in f.numeric_profile:
            assert k.parallelism == float(f.symbolic_record.pind.size)

    def test_numeric_requires_symbolic(self, small_laplace):
        with pytest.raises(RuntimeError):
            FastIlu().numeric(small_laplace.a)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(5, 18), seed=st.integers(0, 500), level=st.integers(0, 2))
def test_property_iluk_pattern_contains_matrix(n, seed, level):
    a = random_spd(n, seed=seed)
    pptr, pind = iluk_symbolic(a, level)
    rows = np.repeat(np.arange(n), np.diff(pptr))
    patt = set(zip(rows.tolist(), pind.tolist()))
    arows = np.repeat(np.arange(n), a.row_nnz())
    for i, j in zip(arows.tolist(), a.indices.tolist()):
        assert (i, j) in patt
