"""Decomposition.split_subdomain and the elastic preconditioner repair."""

import numpy as np
import pytest

from repro.dd import Decomposition, GDSWPreconditioner
from repro.fem import laplace_3d
from repro.krylov.gmres import gmres


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(5, 5, 5)


@pytest.fixture(scope="module")
def dec(problem):
    return Decomposition.from_box_partition(problem, 2, 2, 1)


class TestSplitDecomposition:
    def test_partition_stays_valid(self, dec):
        out = dec.split_subdomain(0)
        assert out.n_subdomains == dec.n_subdomains + 1
        combined = np.concatenate(out.node_parts)
        assert np.array_equal(np.sort(combined), np.arange(dec.n_nodes))

    def test_split_halves_are_nonempty_and_disjoint(self, dec):
        out = dec.split_subdomain(1)
        left = out.node_parts[1]
        right = out.node_parts[-1]
        assert left.size > 0 and right.size > 0
        assert not np.intersect1d(left, right).size
        orig = dec.node_parts[1]
        assert np.array_equal(
            np.sort(np.concatenate([left, right])), np.sort(orig)
        )

    def test_unmoved_subdomains_untouched(self, dec):
        out = dec.split_subdomain(0)
        for r in range(1, dec.n_subdomains):
            np.testing.assert_array_equal(
                out.node_parts[r], dec.node_parts[r]
            )

    def test_invalid_rank_rejected(self, dec):
        with pytest.raises(ValueError):
            dec.split_subdomain(dec.n_subdomains)
        with pytest.raises(ValueError):
            dec.split_subdomain(-1)

    def test_singleton_subdomain_rejected(self, problem):
        d = Decomposition.from_box_partition(problem, 2, 2, 1)
        tiny_parts = [
            np.array([0], dtype=np.int64),
            np.setdiff1d(np.arange(d.n_nodes, dtype=np.int64), [0]),
        ]
        d2 = Decomposition(d.a, d.dofs_per_node, tiny_parts, d.graph)
        with pytest.raises(ValueError, match="need >= 2"):
            d2.split_subdomain(0)


class TestPreconditionerSplit:
    def test_repaired_precond_solves(self, problem, dec):
        z = np.ones((problem.a.n_rows, 1))
        precond = GDSWPreconditioner(dec, z)
        repaired = precond.split_subdomain(0)
        assert repaired.dec.n_subdomains == dec.n_subdomains + 1
        res = gmres(
            problem.a, problem.b, preconditioner=repaired, rtol=1e-8
        )
        assert res.converged
        r = problem.b - problem.a.matvec(res.x)
        assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(problem.b)

    def test_unmoved_ranks_reuse_factorizations(self, problem, dec):
        z = np.ones((problem.a.n_rows, 1))
        precond = GDSWPreconditioner(dec, z)
        repaired = precond.split_subdomain(0)
        donors = {d.tobytes() for d in precond.one_level.dof_sets}
        reused = sum(
            1
            for d in repaired.one_level.dof_sets
            if d.tobytes() in donors
        )
        # everything but the split halves keeps its dof set (donor key)
        assert reused >= dec.n_subdomains - 1
