"""GDSW / rGDSW coarse spaces: partition of unity, null-space
reproduction, energy-minimizing extension."""

import numpy as np
import pytest

from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    SchwarzConfig,
    analyze_interface,
    build_coarse_space,
)
from repro.dd.coarse_space import energy_minimizing_extension
from repro.fem import (
    constant_nullspace,
    elasticity_3d,
    laplace_3d,
    rigid_body_modes,
    translations_only,
)


@pytest.fixture(scope="module")
def elas():
    return elasticity_3d(6)


@pytest.fixture(scope="module")
def elas_dec(elas):
    return Decomposition.from_box_partition(elas, 2, 2, 2)


@pytest.fixture(scope="module")
def elas_analysis(elas_dec):
    return analyze_interface(elas_dec, dim=3)


class TestCoarseSpace:
    @pytest.mark.parametrize("variant", ["gdsw", "rgdsw"])
    def test_partition_of_unity(self, elas_dec, elas_analysis, elas, variant):
        z = rigid_body_modes(elas.coordinates)
        cs = build_coarse_space(elas_dec, elas_analysis, z, variant=variant)
        assert cs.partition_of_unity_error() < 1e-12

    def test_rgdsw_smaller_than_gdsw(self, elas_dec, elas_analysis, elas):
        z = rigid_body_modes(elas.coordinates)
        full = build_coarse_space(elas_dec, elas_analysis, z, variant="gdsw")
        red = build_coarse_space(elas_dec, elas_analysis, z, variant="rgdsw")
        assert 0 < red.n_coarse < full.n_coarse

    @pytest.mark.parametrize("variant", ["gdsw", "rgdsw"])
    def test_nullspace_in_interface_span(
        self, elas_dec, elas_analysis, elas, variant
    ):
        """R_Gamma Z must lie in range(Phi_Gamma) -- the key GDSW
        approximation property."""
        z = rigid_body_modes(elas.coordinates)
        cs = build_coarse_space(elas_dec, elas_analysis, z, variant=variant)
        zg = z[cs.interface_dofs, :]
        phi = cs.phi_gamma.todense()
        resid = zg - phi @ np.linalg.lstsq(phi, zg, rcond=None)[0]
        assert np.abs(resid).max() < 1e-9

    def test_laplace_constant_reproduced(self):
        p = laplace_3d(5)
        dec = Decomposition.from_box_partition(p, 2, 2, 1)
        an = analyze_interface(dec, dim=3)
        cs = build_coarse_space(dec, an, constant_nullspace(p.a.n_rows), "gdsw")
        ones = np.ones(cs.interface_dofs.size)
        phi = cs.phi_gamma.todense()
        resid = ones - phi @ np.linalg.lstsq(phi, ones, rcond=None)[0]
        assert np.abs(resid).max() < 1e-10
        # with disjoint GDSW components the columns sum exactly to one
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)

    def test_translations_only_variant(self, elas_dec, elas_analysis, elas):
        z3 = translations_only(elas.coordinates.shape[0], 3)
        cs = build_coarse_space(elas_dec, elas_analysis, z3, variant="rgdsw")
        z6 = rigid_body_modes(elas.coordinates)
        cs6 = build_coarse_space(elas_dec, elas_analysis, z6, variant="rgdsw")
        assert cs.n_coarse <= cs6.n_coarse

    def test_rank_reduction_drops_dependent_columns(self, elas_dec, elas_analysis, elas):
        """A singleton vertex supports at most dofs_per_node independent
        null-space restrictions (rotations at a point are translations)."""
        z = rigid_body_modes(elas.coordinates)
        cs = build_coarse_space(elas_dec, elas_analysis, z, variant="gdsw")
        for comp, (nodes, w) in zip(elas_analysis.components, cs.weights):
            if nodes.size == 1:
                # find this component's columns: at most 3 (not 6)
                pass  # structural check below
        # global check: Phi_Gamma has full column rank
        phi = cs.phi_gamma.todense()
        assert np.linalg.matrix_rank(phi) == cs.n_coarse

    def test_invalid_variant(self, elas_dec, elas_analysis, elas):
        with pytest.raises(ValueError):
            build_coarse_space(
                elas_dec, elas_analysis, rigid_body_modes(elas.coordinates), "agdsw"
            )


class TestExtension:
    def test_extension_is_discrete_harmonic(self, elas_dec, elas_analysis, elas):
        """A_II Phi_I + A_IG Phi_G = 0: the defining property of Eq. 2."""
        z = rigid_body_modes(elas.coordinates)
        cs = build_coarse_space(elas_dec, elas_analysis, z, variant="rgdsw")

        def factory():
            from repro.direct import direct_solver

            return direct_solver("tacho")

        phi, _, _ = energy_minimizing_extension(elas_dec, elas_analysis, cs, factory)
        a = elas.a.todense()
        p = phi.todense()
        interior = cs.interior_dofs
        resid = a[interior, :] @ p
        assert np.abs(resid).max() < 1e-8

    def test_extension_preserves_interface_values(self, elas_dec, elas_analysis, elas):
        z = rigid_body_modes(elas.coordinates)
        cs = build_coarse_space(elas_dec, elas_analysis, z, variant="rgdsw")

        def factory():
            from repro.direct import direct_solver

            return direct_solver("tacho")

        phi, _, _ = energy_minimizing_extension(elas_dec, elas_analysis, cs, factory)
        np.testing.assert_allclose(
            phi.todense()[cs.interface_dofs, :],
            cs.phi_gamma.todense(),
            atol=1e-12,
        )

    def test_coarse_matrix_spd(self, elas, elas_dec):
        z = rigid_body_modes(elas.coordinates)
        m = GDSWPreconditioner(
            dec=elas_dec, nullspace=z, config=SchwarzConfig(variant="rgdsw")
        )
        a0 = m.a0.todense()
        np.testing.assert_allclose(a0, a0.T, atol=1e-8 * np.abs(a0).max())
        assert np.linalg.eigvalsh(a0)[0] > 0


class TestRankReduce:
    """Regression for the _rank_reduce contract: the returned columns'
    Gram matrix must match the documented semantics in both modes."""

    def test_default_gram_is_diag_of_squared_singular_values(self):
        from repro.dd.coarse_space import _rank_reduce

        rng = np.random.default_rng(5)
        cols = rng.standard_normal((12, 4))
        cols[:, 3] = 2.0 * cols[:, 0] - cols[:, 1]  # dependent column
        out = _rank_reduce(cols)
        assert out.shape == (12, 3)
        s = np.linalg.svd(cols, compute_uv=False)
        gram = out.T @ out
        np.testing.assert_allclose(gram, np.diag(s[:3] ** 2), atol=1e-10)
        # the scaled form preserves the column span
        proj, *_ = np.linalg.lstsq(out, cols, rcond=None)
        np.testing.assert_allclose(out @ proj, cols, atol=1e-10)

    def test_orthonormal_gram_is_identity(self):
        from repro.dd.coarse_space import _rank_reduce

        rng = np.random.default_rng(6)
        cols = rng.standard_normal((10, 5))
        cols[:, 4] = cols[:, 2]
        out = _rank_reduce(cols, orthonormal=True)
        assert out.shape == (10, 4)
        np.testing.assert_allclose(out.T @ out, np.eye(4), atol=1e-12)

    def test_empty_and_zero_inputs(self):
        from repro.dd.coarse_space import _rank_reduce

        empty = _rank_reduce(np.zeros((7, 0)))
        assert empty.shape == (7, 0)
        zero = _rank_reduce(np.zeros((7, 3)), orthonormal=True)
        assert zero.shape == (7, 0)

    def test_gdsw_basis_unchanged_by_orthonormal_option(self, elas_dec, elas_analysis, elas):
        """The default (scaled) mode is what build_coarse_space uses;
        its output must be byte-stable against the option's addition."""
        z = rigid_body_modes(elas.coordinates)
        cs = build_coarse_space(elas_dec, elas_analysis, z, variant="rgdsw")
        cs2 = build_coarse_space(elas_dec, elas_analysis, z, variant="rgdsw")
        np.testing.assert_array_equal(
            cs.phi_gamma.data, cs2.phi_gamma.data
        )
        # scaled columns: per-block Gram diagonal, not identity
        pg = cs.phi_gamma.todense()
        gram = pg.T @ pg
        assert not np.allclose(np.diag(gram), 1.0)
