"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.csr import CsrMatrix


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for each test."""
    return np.random.default_rng(12345)


def random_csr(
    m: int,
    n: int,
    density: float = 0.3,
    seed: int = 0,
    ensure_diag: bool = False,
) -> CsrMatrix:
    """Random CSR test matrix built through the scipy oracle."""
    a = sp.random(m, n, density=density, random_state=seed, format="csr")
    if ensure_diag:
        a = a + sp.eye(min(m, n), m, n, format="csr") * (1.0 + seed % 7)
    a.sort_indices()
    a.sum_duplicates()
    return CsrMatrix.from_scipy(a)


@contextmanager
def solver_constants(max_supernode=None, pivot_tol=None):
    """Patch ``MAX_SUPERNODE`` / ``PIVOT_TOL`` under a fresh artifact cache.

    The direct solvers read these module constants when they run; the
    fresh cache keeps a record analysed under the patched value out of
    every other test's reach.
    """
    from repro.direct import gp_lu, multifrontal
    from repro.reuse import ArtifactCache, use_artifact_cache

    with use_artifact_cache(ArtifactCache()):
        with mock.patch.object(
            multifrontal, "MAX_SUPERNODE",
            multifrontal.MAX_SUPERNODE if max_supernode is None else max_supernode,
        ), mock.patch.object(
            gp_lu, "PIVOT_TOL", gp_lu.PIVOT_TOL if pivot_tol is None else pivot_tol
        ):
            yield


def random_spd(n: int, seed: int = 0, density: float = 0.2) -> CsrMatrix:
    """Random sparse SPD matrix (diagonally shifted ``B B^T``)."""
    b = sp.random(n, n, density=density, random_state=seed, format="csr")
    a = (b @ b.T).toarray() + n * np.eye(n)
    return CsrMatrix.from_dense(a, tol=0.0)


@pytest.fixture(scope="session")
def small_laplace():
    """A small 3D Laplace problem shared across tests."""
    from repro.fem import laplace_3d

    return laplace_3d(4)


@pytest.fixture(scope="session")
def small_elasticity():
    """A small 3D elasticity problem shared across tests."""
    from repro.fem import elasticity_3d

    return elasticity_3d(4)
