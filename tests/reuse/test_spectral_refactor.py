"""Drift-gated spectral coarse-space reuse across refactorizations."""

import numpy as np
import pytest

from repro.dd import Decomposition, GDSWPreconditioner, SchwarzConfig
from repro.fem import laplace_3d
from repro.obs import Tracer, use_tracer
from repro.sparse.csr import CsrMatrix


def _scaled(a: CsrMatrix, s: float) -> CsrMatrix:
    return CsrMatrix(a.indptr.copy(), a.indices.copy(), a.data * s, a.shape)


@pytest.fixture(scope="module")
def lap():
    return laplace_3d(4, 4, 4)


def _spectral(problem, a=None):
    """Spectral preconditioner at tau = 0.1: values drift up to 0.01
    keeps the eigenvectors."""
    dec = Decomposition.from_box_partition(problem, 2, 2, 1)
    if a is not None:
        dec = dec.with_values(a)
    return GDSWPreconditioner(
        dec,
        np.ones((problem.a.n_rows, 1)),
        SchwarzConfig(coarse_space="spectral", tau=0.1),
    )


def _spans(root, name):
    found = []

    def walk(sp):
        if sp.name == name:
            found.append(sp)
        for c in sp.children:
            walk(c)

    walk(root)
    return found


class TestDriftGate:
    def test_small_drift_reuses_vectors(self, lap):
        m = _spectral(lap)
        n_before = m.space.n_coarse
        vecs_before = m.space
        tracer = Tracer()
        with use_tracer(tracer):
            m.refactor(_scaled(lap.a, 1.001))  # drift 1e-3 < tol
        assert m.space is vecs_before
        assert m.space.n_coarse == n_before
        assert _spans(tracer.root, "reuse/spectral_reuse")
        assert not _spans(tracer.root, "reuse/spectral_rebuild")

    def test_large_drift_rebuilds(self, lap):
        m = _spectral(lap)
        tracer = Tracer()
        with use_tracer(tracer):
            m.refactor(_scaled(lap.a, 1.5))  # drift 0.5 > tol
        assert not _spans(tracer.root, "reuse/spectral_reuse")
        assert _spans(tracer.root, "reuse/spectral_rebuild")

    def test_rebuild_bit_identical_to_cold(self, lap):
        a2 = _scaled(lap.a, 1.5)
        warm = _spectral(lap)
        warm.refactor(a2)
        cold = _spectral(lap, a=a2)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(lap.a.n_rows)
        assert np.array_equal(warm.apply(v), cold.apply(v))
        assert warm.space.n_coarse == cold.space.n_coarse

    def test_default_drift_tol_tracks_tau(self, lap):
        for scale, kept in ((1.009, True), (1.011, False)):
            m = _spectral(lap)
            tracer = Tracer()
            with use_tracer(tracer):
                m.refactor(_scaled(lap.a, scale))
            assert bool(_spans(tracer.root, "reuse/spectral_reuse")) == kept

    def test_reused_solve_still_converges(self, lap):
        from repro.krylov.gmres import gmres

        m = _spectral(lap)
        a2 = _scaled(lap.a, 1.001)
        m.refactor(a2)
        res = gmres(a2, lap.b, preconditioner=m, rtol=1e-8)
        assert res.converged
        r = lap.b - a2.matvec(res.x)
        assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(lap.b)
