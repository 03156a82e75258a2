"""One-level Schwarz, two-level GDSW, local solvers, half precision."""

import numpy as np
import pytest

from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    HalfPrecisionOperator,
    LocalSolverSpec,
    OneLevelSchwarz,
    SchwarzConfig,
)
from repro.dd.precision import round_to_single
from repro.fem import elasticity_3d, laplace_3d, rigid_body_modes
from repro.krylov import gmres
from repro.sparse import CsrMatrix


@pytest.fixture(scope="module")
def elas():
    return elasticity_3d(6)


@pytest.fixture(scope="module")
def elas_dec(elas):
    return Decomposition.from_box_partition(elas, 2, 2, 2)


@pytest.fixture(scope="module")
def gdsw(elas, elas_dec):
    z = rigid_body_modes(elas.coordinates)
    return GDSWPreconditioner(
        elas_dec, z,
        SchwarzConfig(local=LocalSolverSpec(kind="tacho", ordering="nd")),
    )


class TestLocalSolvers:
    @pytest.mark.parametrize(
        "spec",
        [
            LocalSolverSpec(kind="tacho"),
            LocalSolverSpec(kind="superlu"),
            LocalSolverSpec(kind="superlu", gpu_solve=True),
        ],
    )
    def test_exact_kinds_invert(self, spec, rng):
        a = laplace_3d(4).a
        loc = spec.build(a)
        b = rng.standard_normal(a.n_rows)
        x = loc.apply(b)
        assert np.linalg.norm(a.matvec(x) - b) < 1e-8 * np.linalg.norm(b)
        assert loc.exact

    @pytest.mark.parametrize("kind", ["iluk", "fastilu"])
    def test_inexact_kinds_approximate(self, kind, rng):
        a = laplace_3d(4).a
        loc = LocalSolverSpec(kind=kind, ilu_level=1, ordering="natural").build(a)
        b = rng.standard_normal(a.n_rows)
        x = loc.apply(b)
        # not exact, but a contraction-quality approximation
        q = np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b)
        assert 1e-12 < q < 0.8
        assert not loc.exact

    def test_superlu_gpu_pairing_has_setup_cost(self):
        a = laplace_3d(4).a
        cpu = LocalSolverSpec(kind="superlu", gpu_solve=False).build(a)
        gpu = LocalSolverSpec(kind="superlu", gpu_solve=True).build(a)
        assert len(cpu.setup_profile) == 0
        assert len(gpu.setup_profile) >= 2
        assert not gpu.symbolic_reusable  # pivoting: nothing is reusable

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LocalSolverSpec(kind="pardiso")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ilu_level", -1),
            ("factor_damping", 0.0),
            ("factor_damping", 1.5),
            ("solve_damping", -0.2),
        ],
    )
    def test_numeric_options_validated_at_construction(self, field, value):
        """Rejected when the spec is built, naming the field -- not
        inside the first factorization."""
        with pytest.raises(ValueError, match=field):
            LocalSolverSpec(kind="fastilu", **{field: value})

    def test_with_gpu_copies(self):
        s = LocalSolverSpec(kind="tacho")
        assert s.with_gpu(True).gpu_solve is True
        assert s.gpu_solve is False


class TestOneLevel:
    def test_apply_is_sum_of_local_solves(self, elas, elas_dec, rng):
        one = OneLevelSchwarz(elas_dec, LocalSolverSpec(kind="tacho"), overlap=1)
        v = rng.standard_normal(elas.a.n_rows)
        expected = np.zeros_like(v)
        for dofs, loc in zip(one.dof_sets, one.locals):
            np.add.at(expected, dofs, loc.apply(v[dofs]))
        np.testing.assert_allclose(one.apply(v), expected, atol=1e-12)

    def test_spd_symmetric_operator(self, elas, elas_dec, rng):
        """Additive Schwarz with exact SPD local solves is symmetric:
        <Mv, w> == <v, Mw>."""
        one = OneLevelSchwarz(elas_dec, LocalSolverSpec(kind="tacho"), overlap=1)
        v, w = rng.standard_normal((2, elas.a.n_rows))
        assert one.apply(v) @ w == pytest.approx(v @ one.apply(w), rel=1e-9)

    def test_halo_positive_with_overlap(self, elas_dec):
        one = OneLevelSchwarz(elas_dec, LocalSolverSpec(kind="tacho"), overlap=1)
        assert all(h > 0 for h in one.halo_doubles)

    def test_cg_convergence_grows_with_subdomains(self, elas):
        """One-level Schwarz: iterations increase with n_p -- the paper's
        motivation for the coarse level."""
        its = []
        for parts in [(2, 1, 1), (2, 2, 2)]:
            dec = Decomposition.from_box_partition(elas, *parts)
            one = OneLevelSchwarz(dec, LocalSolverSpec(kind="tacho"), overlap=1)
            res = gmres(elas.a, elas.b, preconditioner=one.apply, rtol=1e-7)
            its.append(res.iterations)
        assert its[1] > its[0]


class TestTwoLevel:
    def test_coarse_level_improves_iterations(self, elas, elas_dec, gdsw):
        one = OneLevelSchwarz(elas_dec, LocalSolverSpec(kind="tacho"), overlap=1)
        r1 = gmres(elas.a, elas.b, preconditioner=one.apply, rtol=1e-7)
        r2 = gmres(elas.a, elas.b, preconditioner=gdsw, rtol=1e-7)
        assert r2.converged
        assert r2.iterations < r1.iterations

    def test_apply_additive_structure(self, elas, elas_dec, gdsw, rng):
        v = rng.standard_normal(elas.a.n_rows)
        coarse_part = gdsw.phi.matvec(
            gdsw.coarse.apply(gdsw.phi.rmatvec(v))
        )
        np.testing.assert_allclose(
            gdsw.apply(v), gdsw.one_level.apply(v) + coarse_part, atol=1e-10
        )

    def test_a0_is_galerkin_product(self, elas, gdsw):
        a0 = gdsw.a0.todense()
        phi = gdsw.phi.todense()
        np.testing.assert_allclose(a0, phi.T @ elas.a.todense() @ phi, atol=1e-8)

    def test_weak_scaling_iterations_bounded(self):
        """The defining GDSW property: iterations stay bounded as the
        subdomain count grows with the problem (weak scaling)."""
        its = []
        for ne, parts in [(8, (2, 2, 1)), (8, (2, 2, 2)), (8, (4, 2, 2))]:
            p = elasticity_3d(ne)
            z = rigid_body_modes(p.coordinates)
            dec = Decomposition.from_box_partition(p, *parts)
            m = GDSWPreconditioner(
                dec, z, SchwarzConfig(local=LocalSolverSpec(kind="tacho"))
            )
            res = gmres(p.a, p.b, preconditioner=m, rtol=1e-7)
            assert res.converged
            its.append(res.iterations)
        assert max(its) <= 2.5 * min(its)

    def test_single_subdomain_degenerates_to_one_level(self, elas):
        dec = Decomposition.from_box_partition(elas, 1, 1, 1)
        z = rigid_body_modes(elas.coordinates)
        m = GDSWPreconditioner(dec, z)
        assert m.n_coarse == 0
        assert m.phi is None
        x = m.apply(elas.b)
        # exact solve of the single (whole-domain) subdomain
        assert np.linalg.norm(elas.a.matvec(x) - elas.b) < 1e-7 * np.linalg.norm(elas.b)

    def test_profiles_available_per_rank(self, elas_dec, gdsw):
        for r in range(elas_dec.n_subdomains):
            assert len(gdsw.rank_setup_profile(r)) > 0
            assert len(gdsw.rank_apply_profile(r)) > 0
            assert gdsw.halo_doubles(r) > 0

    def test_refactorization_cheaper_for_tacho(self, gdsw):
        from repro.runtime import JobLayout, price_profile

        lay = JobLayout.cpu_run(1, ranks_per_node=8)
        first = sum(
            price_profile(gdsw.rank_setup_profile(r, refactorization=False), lay)
            for r in range(8)
        )
        refac = sum(
            price_profile(gdsw.rank_setup_profile(r, refactorization=True), lay)
            for r in range(8)
        )
        assert refac < first

    def test_gdsw_variant_larger_coarse_space(self, elas, elas_dec):
        z = rigid_body_modes(elas.coordinates)
        full = GDSWPreconditioner(elas_dec, z, SchwarzConfig(variant="gdsw"))
        red = GDSWPreconditioner(elas_dec, z, SchwarzConfig(variant="rgdsw"))
        assert full.n_coarse > red.n_coarse
        res_f = gmres(elas.a, elas.b, preconditioner=full, rtol=1e-7)
        res_r = gmres(elas.a, elas.b, preconditioner=red, rtol=1e-7)
        assert res_f.converged and res_r.converged
        # the richer space converges at least as fast
        assert res_f.iterations <= res_r.iterations + 2


class TestHalfPrecision:
    def test_iteration_parity_with_double(self, elas, elas_dec):
        z = rigid_body_modes(elas.coordinates)
        m64 = GDSWPreconditioner(elas_dec, z)
        a32 = CsrMatrix(
            elas.a.indptr, elas.a.indices, round_to_single(elas.a.data), elas.a.shape
        )
        dec32 = Decomposition(a32, 3, elas_dec.node_parts, elas_dec.graph)
        m32 = HalfPrecisionOperator(GDSWPreconditioner(dec32, z))
        r64 = gmres(elas.a, elas.b, preconditioner=m64, rtol=1e-7)
        r32 = gmres(elas.a, elas.b, preconditioner=m32, rtol=1e-7)
        assert r32.converged
        assert abs(r32.iterations - r64.iterations) <= 3

    def test_apply_rounds_through_float32(self, elas, elas_dec, gdsw, rng):
        half = HalfPrecisionOperator(gdsw)
        v = rng.standard_normal(elas.a.n_rows)
        y = half.apply(v)
        np.testing.assert_array_equal(y, y.astype(np.float32).astype(np.float64))

    def test_profiles_halve_bytes(self, gdsw):
        half = HalfPrecisionOperator(gdsw)
        full = gdsw.rank_setup_profile(0)
        reduced = half.rank_setup_profile(0)
        assert reduced.total_bytes == pytest.approx(0.5 * full.total_bytes)
        assert reduced.total_flops == pytest.approx(full.total_flops)

    def test_halo_halved(self, gdsw):
        half = HalfPrecisionOperator(gdsw)
        assert half.halo_doubles(0) == (gdsw.halo_doubles(0) + 1) // 2

    def test_round_to_single(self):
        x = np.array([1.0 + 1e-12])
        assert round_to_single(x)[0] == np.float32(1.0 + 1e-12)
