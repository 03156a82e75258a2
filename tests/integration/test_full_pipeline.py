"""End-to-end integration across subsystems."""

import numpy as np
import pytest

from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    LocalSolverSpec,
    OneLevelSchwarz,
    SchwarzConfig,
)
from repro.fem import constant_nullspace, elasticity_3d, laplace_3d, rigid_body_modes
from repro.krylov import cg, gmres


class TestScalarPipeline:
    """Laplace (1 dof/node) through the whole algebraic stack."""

    @pytest.fixture(scope="class")
    def prob(self):
        return laplace_3d(7)

    def test_box_decomposition_gdsw(self, prob):
        dec = Decomposition.from_box_partition(prob, 2, 2, 2)
        m = GDSWPreconditioner(
            dec, constant_nullspace(prob.a.n_rows),
            SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
        )
        res = gmres(prob.a, prob.b, preconditioner=m, rtol=1e-8)
        assert res.converged
        true = np.linalg.norm(prob.a.matvec(res.x) - prob.b)
        assert true <= 1.1e-8 * np.linalg.norm(prob.b)

    def test_algebraic_decomposition_gdsw(self, prob):
        """No grid information at all: METIS-like partition + GDSW."""
        dec = Decomposition.algebraic(prob.a, 6, dofs_per_node=1)
        m = GDSWPreconditioner(
            dec, constant_nullspace(prob.a.n_rows),
            SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
        )
        res = gmres(prob.a, prob.b, preconditioner=m, rtol=1e-7)
        assert res.converged

    def test_cg_with_gdsw_spd(self, prob):
        dec = Decomposition.from_box_partition(prob, 2, 2, 1)
        m = GDSWPreconditioner(dec, constant_nullspace(prob.a.n_rows))
        res = cg(prob.a, prob.b, preconditioner=m, rtol=1e-8)
        assert res.converged


class TestMatrixMarketPipeline:
    def test_roundtrip_then_solve(self, tmp_path):
        """Write the assembled operator, read it back, solve with GDSW."""
        from repro.io import read_matrix_market, write_matrix_market

        prob = elasticity_3d(5)
        path = tmp_path / "elas.mtx"
        write_matrix_market(path, prob.a)
        a = read_matrix_market(path)
        dec_src = Decomposition.from_box_partition(prob, 2, 2, 1)
        dec = Decomposition(a, 3, dec_src.node_parts, dec_src.graph)
        m = GDSWPreconditioner(dec, rigid_body_modes(prob.coordinates))
        res = gmres(a, prob.b, preconditioner=m, rtol=1e-7)
        assert res.converged


class TestSolverMatrix:
    """Every local-solver kind drives the full pipeline to convergence."""

    @pytest.mark.parametrize(
        "spec",
        [
            LocalSolverSpec(kind="tacho", ordering="nd"),
            LocalSolverSpec(kind="superlu", ordering="nd"),
            LocalSolverSpec(kind="superlu", ordering="nd", gpu_solve=True),
            LocalSolverSpec(kind="iluk", ilu_level=1, ordering="natural"),
            LocalSolverSpec(kind="fastilu", ilu_level=1, ordering="natural"),
        ],
        ids=["tacho-nd", "superlu", "superlu-gpu", "iluk", "fastilu"],
    )
    def test_converges(self, spec):
        prob = elasticity_3d(6)
        dec = Decomposition.from_box_partition(prob, 2, 2, 1)
        m = GDSWPreconditioner(
            dec, rigid_body_modes(prob.coordinates), SchwarzConfig(local=spec)
        )
        res = gmres(prob.a, prob.b, preconditioner=m, rtol=1e-7, maxiter=800)
        assert res.converged
        true = np.linalg.norm(prob.a.matvec(res.x) - prob.b)
        assert true <= 1.2e-7 * np.linalg.norm(prob.b)


class Test2DPipeline:
    """The 2D classification path (edges + vertices, no faces) end-to-end."""

    def test_2d_laplace_gdsw(self):
        from repro.fem import laplace_2d

        prob = laplace_2d(16, 16)
        dec = Decomposition.from_box_partition(prob, 4, 4)
        m = GDSWPreconditioner(
            dec, constant_nullspace(prob.a.n_rows),
            SchwarzConfig(local=LocalSolverSpec(kind="tacho"), dim=2),
        )
        assert m.n_coarse > 0
        res = gmres(prob.a, prob.b, preconditioner=m, rtol=1e-8)
        assert res.converged
        # at 16 subdomains the 2D problem is still easy for one-level
        # Schwarz; the coarse level must at least not hurt materially
        one = OneLevelSchwarz(dec, LocalSolverSpec(kind="tacho"), overlap=1)
        r1 = gmres(prob.a, prob.b, preconditioner=one.apply, rtol=1e-8, maxiter=900)
        assert res.iterations <= r1.iterations + 8

    def test_2d_weak_scaling_flat(self):
        from repro.fem import laplace_2d

        its = []
        for ne, parts in ((12, (2, 2)), (16, (4, 4)), (20, (5, 4))):
            prob = laplace_2d(ne, ne)
            dec = Decomposition.from_box_partition(prob, *parts)
            m = GDSWPreconditioner(
                dec, constant_nullspace(prob.a.n_rows), SchwarzConfig(dim=2)
            )
            res = gmres(prob.a, prob.b, preconditioner=m, rtol=1e-8)
            assert res.converged
            its.append(res.iterations)
        assert max(its) <= 2.5 * min(its)
