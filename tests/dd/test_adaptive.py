"""Adaptive GDSW (AGDSW): eigen-enrichment for heterogeneous coefficients."""

import numpy as np
import pytest

from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    LocalSolverSpec,
    SchwarzConfig,
    analyze_interface,
)
from repro.dd.adaptive import build_adaptive_coarse_space, component_eigenmodes
from repro.dd.coarse_space import build_coarse_space
from repro.fem import constant_nullspace, laplace_3d
from repro.fem.grid import StructuredGrid
from repro.krylov import gmres


def _channel_problem(ne=8, contrast=1e6):
    """Beams of high coefficient along x, two channels per face quadrant."""
    grid = StructuredGrid(ne, ne, ne)
    coef = np.ones(grid.n_elements)
    ez, ey, ex = np.meshgrid(np.arange(ne), np.arange(ne), np.arange(ne), indexing="ij")
    beam = (ey % 2 == 1) & ((ez == 1) | (ez == 5))
    coef[beam.ravel()] = contrast
    return laplace_3d(ne, coefficient=coef)


@pytest.fixture(scope="module")
def hetero():
    p = _channel_problem()
    dec = Decomposition.from_box_partition(p, 2, 2, 2)
    return p, dec


@pytest.fixture(scope="module")
def homog():
    p = laplace_3d(8)
    dec = Decomposition.from_box_partition(p, 2, 2, 2)
    return p, dec


class TestEigenmodes:
    def test_constant_mode_is_near_zero(self, homog):
        p, dec = homog
        an = analyze_interface(dec, dim=3)
        comp = max(an.components, key=lambda c: c.nodes.size)
        w, v = component_eigenmodes(dec, comp.nodes, tol=np.inf, max_modes=3)
        assert w[0] < 1e-8  # the Neumann constant
        # and the corresponding eigenvector is (nearly) constant
        v0 = v[:, 0] / np.linalg.norm(v[:, 0])
        c = np.full_like(v0, 1.0 / np.sqrt(v0.size))
        assert min(np.linalg.norm(v0 - c), np.linalg.norm(v0 + c)) < 1e-4

    def test_homogeneous_has_spectral_gap(self, homog):
        p, dec = homog
        an = analyze_interface(dec, dim=3)
        comp = max(an.components, key=lambda c: c.nodes.size)
        w, _ = component_eigenmodes(dec, comp.nodes, tol=np.inf, max_modes=5)
        assert w[0] < 1e-8
        assert w[1] > 0.05  # no spurious low modes without contrast

    def test_channels_create_low_modes(self, hetero):
        p, dec = hetero
        an = analyze_interface(dec, dim=3)
        # some face crossed by two channels has >= 2 modes below 1e-3
        found = False
        for comp in an.by_kind("face"):
            w, _ = component_eigenmodes(dec, comp.nodes, tol=1e-3, max_modes=6)
            if w.size >= 2:
                found = True
                break
        assert found

    def test_tol_validation(self, homog):
        p, dec = homog
        an = analyze_interface(dec, dim=3)
        with pytest.raises(ValueError):
            build_adaptive_coarse_space(
                dec, an, constant_nullspace(p.a.n_rows), tol=0.0
            )


class TestAdaptiveCoarseSpace:
    def test_collapses_to_gdsw_when_smooth(self, homog):
        p, dec = homog
        an = analyze_interface(dec, dim=3)
        z = constant_nullspace(p.a.n_rows)
        full = build_coarse_space(dec, an, z, variant="gdsw")
        adaptive = build_adaptive_coarse_space(dec, an, z, tol=1e-2)
        assert adaptive.n_coarse == full.n_coarse

    def test_enriches_under_contrast(self, hetero):
        p, dec = hetero
        an = analyze_interface(dec, dim=3)
        z = constant_nullspace(p.a.n_rows)
        full = build_coarse_space(dec, an, z, variant="gdsw")
        adaptive = build_adaptive_coarse_space(dec, an, z, tol=1e-2)
        assert adaptive.n_coarse > full.n_coarse

    def test_partition_of_unity(self, hetero):
        p, dec = hetero
        an = analyze_interface(dec, dim=3)
        cs = build_adaptive_coarse_space(
            dec, an, constant_nullspace(p.a.n_rows), tol=1e-2
        )
        assert cs.partition_of_unity_error() < 1e-12

    def test_preconditioner_end_to_end(self, hetero):
        p, dec = hetero
        z = constant_nullspace(p.a.n_rows)
        spec = LocalSolverSpec(kind="tacho", ordering="nd")
        m_g = GDSWPreconditioner(dec, z, SchwarzConfig(local=spec, variant="gdsw"))
        m_a = GDSWPreconditioner(dec, z, SchwarzConfig(local=spec, variant="agdsw"))
        r_g = gmres(p.a, p.b, preconditioner=m_g, rtol=1e-7, maxiter=1500)
        r_a = gmres(p.a, p.b, preconditioner=m_a, rtol=1e-7, maxiter=1500)
        assert r_a.converged
        assert m_a.n_coarse > m_g.n_coarse
        # at laptop scale with exact local solves the contrast gap is
        # small; the enrichment must not hurt
        assert r_a.iterations <= r_g.iterations + 3
