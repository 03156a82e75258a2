"""The fully algebraic spectral coarse space (repro.dd.algebraic)."""

import numpy as np
import pytest

from repro.api import KrylovConfig, SchwarzConfig, SolverSession
from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    analyze_interface,
    build_spectral_coarse_space,
)
from repro.dd.algebraic import local_spsd_splitting, subdomain_spectral_modes
from repro.fem import laplace_2d, laplace_3d


@pytest.fixture(scope="module")
def lap():
    return laplace_2d(12)


@pytest.fixture(scope="module")
def lap_dec(lap):
    return Decomposition.from_box_partition(lap, 2, 2, 1)


@pytest.fixture(scope="module")
def lap_analysis(lap_dec):
    return analyze_interface(lap_dec, dim=2)


class TestSpsdSplitting:
    def test_splitting_is_spsd(self, lap_dec, lap_analysis):
        """The Neumann-corrected patch matrix is symmetric positive
        semi-definite for an M-matrix (the construction's core claim)."""
        for rank in range(lap_dec.n_subdomains):
            gamma = np.asarray(sorted(
                n for n, owners in lap_analysis.node_adjacency.items()
                if rank in owners
            ), dtype=np.int64)
            patch = np.union1d(lap_dec.node_parts[rank], gamma)
            a_tilde, nc = local_spsd_splitting(lap_dec, gamma, patch)
            assert nc == gamma.size
            np.testing.assert_allclose(a_tilde, a_tilde.T, atol=0)
            evs = np.linalg.eigvalsh(a_tilde)
            scale = np.abs(a_tilde).max()
            assert evs[0] >= -1e-12 * scale

    def test_interior_block_matches_assembled_matrix(self, lap_dec, lap_analysis):
        """Folding only touches rows with couplings leaving the patch:
        deep-interior entries are the assembled values verbatim."""
        rank = 0
        gamma = np.asarray(sorted(
            n for n, owners in lap_analysis.node_adjacency.items()
            if rank in owners
        ), dtype=np.int64)
        patch = np.union1d(lap_dec.node_parts[rank], gamma)
        a_tilde, nc = local_spsd_splitting(lap_dec, gamma, patch)
        gamma_set = set(gamma.tolist())
        rest = np.asarray(
            [v for v in patch.tolist() if v not in gamma_set], np.int64
        )
        order = np.concatenate([gamma, rest])
        dense = lap_dec.a.todense()[np.ix_(order, order)]
        # off-diagonal entries are never touched by the correction
        off = ~np.eye(order.size, dtype=bool)
        np.testing.assert_allclose(
            (0.5 * (dense + dense.T))[off], a_tilde[off], atol=0
        )


class TestSpectralModes:
    def test_threshold_and_cap_respected(self, lap_dec, lap_analysis):
        for rank in range(lap_dec.n_subdomains):
            gamma = np.asarray(sorted(
                n for n, owners in lap_analysis.node_adjacency.items()
                if rank in owners
            ), dtype=np.int64)
            patch = np.union1d(lap_dec.node_parts[rank], gamma)
            evals, modes = subdomain_spectral_modes(
                lap_dec, gamma, patch, tau=0.1, max_vectors=3
            )
            assert 1 <= evals.size <= 3
            assert modes.shape == (gamma.size, evals.size)
            # beyond the always-kept first mode, tau is a hard ceiling
            assert np.all(evals[1:] <= 0.1)
            assert np.all(np.diff(evals) >= 0)


class TestSpectralCoarseSpace:
    def test_partition_of_unity(self, lap_dec, lap_analysis):
        cs = build_spectral_coarse_space(lap_dec, lap_analysis, tau=0.1)
        assert cs.variant == "spectral"
        assert cs.partition_of_unity_error() < 1e-12

    def test_per_subdomain_blocks_orthonormal(self, lap_dec, lap_analysis):
        cs = build_spectral_coarse_space(lap_dec, lap_analysis, tau=0.1)
        pg = cs.phi_gamma.todense()
        gram = pg.T @ pg
        # per-subdomain column blocks are orthonormal (off-block overlap
        # may couple them, but the diagonal blocks are identity)
        col = 0
        for evals in cs.eigenvalues:
            k = evals.size
            if k == 0:
                continue
            np.testing.assert_allclose(
                gram[col:col + k, col:col + k], np.eye(k), atol=1e-10
            )
            col += k

    def test_parameter_validation(self, lap_dec, lap_analysis):
        with pytest.raises(ValueError, match="tau"):
            build_spectral_coarse_space(lap_dec, lap_analysis, tau=0.0)
        with pytest.raises(ValueError, match="max_vectors"):
            build_spectral_coarse_space(
                lap_dec, lap_analysis, max_vectors_per_subdomain=0
            )

    def test_metadata_recorded(self, lap_dec, lap_analysis):
        cs = build_spectral_coarse_space(
            lap_dec, lap_analysis, tau=0.05, max_vectors_per_subdomain=4
        )
        assert cs.tau == 0.05
        assert cs.max_vectors_per_subdomain == 4
        assert len(cs.eigenvalues) == lap_dec.n_subdomains


class TestSpectralPreconditioner:
    def test_two_level_spectral_converges(self, lap):
        res = SolverSession(
            lap,
            partition=(2, 2, 1),
            config=SchwarzConfig(coarse_space="spectral", dim=2, tau=0.1),
            krylov=KrylovConfig(rtol=1e-8),
        ).solve()
        assert res.converged
        assert res.n_coarse > 0
        assert res.final_relres < 1e-6

    def test_spectral_verifies(self, lap):
        """The verify suite (incl. the new SPSD-splitting and
        eigenvalue-threshold invariants) passes on a spectral solve."""
        res = SolverSession(
            lap,
            partition=(2, 2, 1),
            config=SchwarzConfig(coarse_space="spectral", dim=2, tau=0.1),
            krylov=KrylovConfig(rtol=1e-8),
            verify=True,
        ).solve()
        names = [c.name for c in res.verification.checks]
        assert "spectral/eigenvalue_threshold" in names
        assert "spectral/spsd_splitting" in names
        assert res.verification.ok

    def test_spectral_without_nullspace_3d(self):
        """The spectral space needs no null space: a 3D Laplace session
        converges identically whether or not one is supplied."""
        p = laplace_3d(4)
        res = SolverSession(
            p,
            partition=(2, 2, 1),
            config=SchwarzConfig(coarse_space="spectral", tau=0.1),
            krylov=KrylovConfig(rtol=1e-8),
        ).solve()
        assert res.converged

    def test_remove_subdomain_keeps_spectral_params(self, lap):
        dec = Decomposition.from_box_partition(lap, 2, 2, 1)
        m = GDSWPreconditioner(
            dec,
            np.ones((lap.a.n_rows, 1)),
            SchwarzConfig(
                coarse_space="spectral", dim=2, tau=0.07,
                max_vectors_per_subdomain=5,
            ),
        )
        m2 = m.remove_subdomain(3)
        assert m2.space.variant == "spectral"
        assert m2.space.tau == 0.07
        assert m2.space.max_vectors_per_subdomain == 5


class TestConfigSurface:
    def test_describe_default_unchanged(self):
        """Default configs keep the historical shard-key format
        byte-for-byte (serving bit-compat)."""
        cfg = SchwarzConfig()
        assert cfg.describe() == (
            f"rgdsw overlap=1 local=[{cfg.local.describe()}] double"
        )
        assert "spectral" not in cfg.describe()

    def test_describe_spectral_appends_params(self):
        cfg = SchwarzConfig(coarse_space="spectral", tau=0.05)
        assert "spectral tau=0.05 maxvec=8" in cfg.describe()

    def test_invalid_coarse_space_rejected(self):
        with pytest.raises(ValueError, match="coarse-space family"):
            SchwarzConfig(coarse_space="geneo")

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            SchwarzConfig(tau=-1.0)
