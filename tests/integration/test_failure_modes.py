"""Failure injection: the stack fails loudly and precisely, not silently."""

import numpy as np
import pytest

from repro.dd import Decomposition, GDSWPreconditioner, LocalSolverSpec, SchwarzConfig
from repro.fem import constant_nullspace, laplace_3d
from repro.krylov import gmres
from repro.sparse import CsrMatrix


class TestSingularInputs:
    def test_singular_local_matrix_raises(self):
        """A structurally singular operator must fail in the local
        factorization with a clear error, not produce garbage."""
        p = laplace_3d(4, dirichlet_faces=())  # pure Neumann: singular
        dec = Decomposition.from_box_partition(p, 1, 1, 1)
        # the single overlapping subdomain IS the singular global matrix
        with pytest.raises((np.linalg.LinAlgError, ZeroDivisionError)):
            GDSWPreconditioner(
                dec, constant_nullspace(p.a.n_rows),
                SchwarzConfig(local=LocalSolverSpec(kind="superlu")),
            )

    def test_zero_diagonal_ilu_raises(self):
        d = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        from repro.ilu import IlukFactorization

        f = IlukFactorization(level=0)
        f.symbolic(CsrMatrix.from_dense(d))
        with pytest.raises(ZeroDivisionError):
            f.numeric(CsrMatrix.from_dense(d))


class TestShapeMismatches:
    def test_nullspace_rows_checked(self):
        p = laplace_3d(4)
        dec = Decomposition.from_box_partition(p, 2, 1, 1)
        with pytest.raises(ValueError):
            GDSWPreconditioner(dec, np.ones((7, 1)))

    def test_layout_vs_decomposition_checked(self):
        from repro.bench import model_machine
        from repro.runtime import JobLayout, time_solver

        p = laplace_3d(4)
        dec = Decomposition.from_box_partition(p, 2, 1, 1)
        m = GDSWPreconditioner(dec, constant_nullspace(p.a.n_rows))
        lay = JobLayout.cpu_run(1, machine=model_machine())  # 8 ranks vs 2
        with pytest.raises(ValueError):
            time_solver(m, lay, 10, 10, 100)


class TestNonConvergence:
    def test_gmres_reports_failure_honestly(self):
        """Hitting maxiter must return converged=False, never a false
        positive."""
        p = laplace_3d(5)
        res = gmres(p.a, p.b, rtol=1e-14, maxiter=3, restart=3)
        assert not res.converged
        assert res.iterations == 3

    def test_flexible_gmres_with_varying_preconditioner(self):
        """The right-preconditioned implementation stores the
        preconditioned directions (FGMRES), so even an iteration-varying
        preconditioner converges to the true solution."""
        p = laplace_3d(5)
        state = {"k": 0}
        dinv = 1.0 / p.a.diagonal()

        def wobbly(v):
            state["k"] += 1
            scale = 1.0 + 0.5 * (state["k"] % 3)  # changes every call
            return scale * dinv * v

        res = gmres(p.a, p.b, preconditioner=wobbly, rtol=1e-8, maxiter=2000)
        assert res.converged
        true = np.linalg.norm(p.a.matvec(res.x) - p.b) / np.linalg.norm(p.b)
        assert true <= 1.1e-8
