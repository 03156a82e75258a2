"""Direct solvers: Gilbert--Peierls LU and multifrontal Cholesky."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.direct import GilbertPeierlsLU, MultifrontalCholesky, direct_solver
from repro.sparse import CsrMatrix
from tests.conftest import random_spd, solver_constants


class TestFactory:
    def test_names(self):
        assert isinstance(direct_solver("superlu"), GilbertPeierlsLU)
        assert isinstance(direct_solver("tacho"), MultifrontalCholesky)
        with pytest.raises(ValueError):
            direct_solver("pardiso")

    def test_phase_order_enforced(self, small_laplace):
        s = direct_solver("tacho")
        with pytest.raises(RuntimeError):
            s.numeric(small_laplace.a)
        s.symbolic(small_laplace.a)
        with pytest.raises(RuntimeError):
            s.solve(np.ones(small_laplace.a.n_rows))


class TestGilbertPeierls:
    @pytest.mark.parametrize("ordering", ["natural", "nd"])
    def test_spd_solve(self, ordering, small_laplace, rng):
        a = small_laplace.a
        s = GilbertPeierlsLU(ordering=ordering).factorize(a)
        b = rng.standard_normal(a.n_rows)
        x = s.solve(b)
        assert np.linalg.norm(a.matvec(x) - b) < 1e-9 * np.linalg.norm(b)

    def test_nonsymmetric_with_pivoting(self, rng):
        n = 60
        d = rng.standard_normal((n, n))
        d[np.abs(d) < 1.2] = 0.0
        d += np.diag(rng.standard_normal(n) * 0.01)  # weak diagonal
        # ensure structural nonsingularity
        d += np.eye(n) * 1e-8
        a = CsrMatrix.from_dense(d)
        s = GilbertPeierlsLU(ordering="natural").factorize(a)
        b = rng.standard_normal(n)
        x = s.solve(b)
        assert np.linalg.norm(d @ x - b) < 1e-7 * np.linalg.norm(b)
        # pivoting actually permuted rows for this hostile diagonal
        assert not np.array_equal(s.row_perm, np.arange(n))

    def test_factors_reproduce_matrix(self, rng):
        n = 25
        a = random_spd(n, seed=4)
        s = GilbertPeierlsLU(ordering="natural").factorize(a)
        l = s.l_csr.todense()
        u = s.u_csr.todense()
        pa = a.todense()[np.ix_(s.perm, s.perm)][s.row_perm, :]
        np.testing.assert_allclose(l @ u, pa, atol=1e-9)
        # unit lower / upper structure
        np.testing.assert_allclose(np.diag(l), 1.0)
        assert np.all(np.abs(np.triu(l, 1)) < 1e-14)
        assert np.all(np.abs(np.tril(u, -1)) < 1e-14)

    def test_multiple_rhs(self, small_elasticity, rng):
        a = small_elasticity.a
        s = GilbertPeierlsLU().factorize(a)
        b = rng.standard_normal((a.n_rows, 3))
        x = s.solve(b)
        np.testing.assert_allclose(a.matmat(x), b, atol=1e-7)

    def test_singular_detection(self):
        d = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(ZeroDivisionError):
            GilbertPeierlsLU(ordering="natural").factorize(CsrMatrix.from_dense(d))

    def test_symbolic_not_reusable(self):
        assert GilbertPeierlsLU.symbolic_reusable is False

    def test_flop_count_positive(self, small_laplace):
        s = GilbertPeierlsLU().factorize(small_laplace.a)
        assert s.flops > 0
        assert s.numeric_profile.total_flops == s.flops

    def test_supernodal_wrapper_solves(self, small_laplace, rng):
        a = small_laplace.a
        s = GilbertPeierlsLU().factorize(a)
        snl, setup = s.supernodal_l()
        assert len(setup.kernels) >= 1
        # full GPU-path solve via L and U supernodal solvers
        from repro.tri.supernodal import SupernodalTriangular

        u = s.u_csr
        snu = SupernodalTriangular.from_csc(u.indptr, u.indices, u.data, u.n_rows)
        b = rng.standard_normal(a.n_rows)
        vp = b[s.perm][s.row_perm]
        z = snu.solve_backward(snl.solve_forward(vp))
        x = np.empty_like(z)
        x[s.perm] = z
        assert np.linalg.norm(a.matvec(x) - b) < 1e-8 * np.linalg.norm(b)


class TestMultifrontal:
    @pytest.mark.parametrize("ordering", ["natural", "nd"])
    def test_spd_solve(self, ordering, small_elasticity, rng):
        a = small_elasticity.a
        s = MultifrontalCholesky(ordering=ordering).factorize(a)
        b = rng.standard_normal(a.n_rows)
        x = s.solve(b)
        assert np.linalg.norm(a.matvec(x) - b) < 1e-9 * np.linalg.norm(b)

    def test_symbolic_reuse_across_values(self, small_laplace, rng):
        a = small_laplace.a
        s = MultifrontalCholesky().symbolic(a)
        s.numeric(a)
        x1 = s.solve(small_laplace.b)
        # new values, same pattern: numeric only
        a2 = CsrMatrix(a.indptr, a.indices, a.data * 2.0, a.shape)
        s.numeric(a2)
        x2 = s.solve(small_laplace.b)
        np.testing.assert_allclose(x2, x1 / 2.0, atol=1e-12)

    def test_multiple_rhs(self, small_laplace, rng):
        a = small_laplace.a
        s = MultifrontalCholesky().factorize(a)
        b = rng.standard_normal((a.n_rows, 4))
        np.testing.assert_allclose(a.matmat(s.solve(b)), b, atol=1e-8)

    def test_level_parallel_profile(self, small_elasticity):
        s = MultifrontalCholesky().factorize(small_elasticity.a)
        prof = s.numeric_profile
        assert prof.total_flops > 0
        # level-set scheduling: one kernel per assembly-tree level
        assert len(prof) >= 1
        assert all(k.parallelism >= 1 for k in prof)

    def test_max_supernode_cap(self, small_laplace):
        with solver_constants(max_supernode=4):
            s = MultifrontalCholesky().symbolic(small_laplace.a)
        assert np.all(np.diff(s.sn_ptr) <= 4)


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_both_solvers_agree(self, seed, rng):
        a = random_spd(40, seed=seed)
        b = np.random.default_rng(seed).standard_normal(40)
        x1 = direct_solver("superlu").factorize(a).solve(b)
        x2 = direct_solver("tacho").factorize(a).solve(b)
        np.testing.assert_allclose(x1, x2, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 500))
def test_property_direct_solvers_invert(n, seed):
    a = random_spd(n, seed=seed)
    b = np.random.default_rng(seed).standard_normal(n)
    for name in ("superlu", "tacho"):
        x = direct_solver(name).factorize(a).solve(b)
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-8 * max(np.linalg.norm(b), 1.0)
