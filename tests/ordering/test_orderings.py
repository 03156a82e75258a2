"""Orderings and symbolic analysis: nested dissection, etree."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import laplace_2d, laplace_3d
from repro.ordering import (
    elimination_tree,
    natural,
    nested_dissection,
    postorder,
    symbolic_cholesky,
    column_counts,
)
from repro.sparse import CsrMatrix, permute
from tests.conftest import random_spd


def _laplace_interior(n2d=10):
    return laplace_2d(
        n2d, n2d, dirichlet_faces=("x0", "x1", "y0", "y1")
    ).a


class TestNestedDissection:
    def test_is_permutation(self):
        a = laplace_3d(5).a
        p = nested_dissection(a)
        assert np.array_equal(np.sort(p), np.arange(a.n_rows))

    def test_reduces_fill_vs_shuffled(self, rng):
        a = _laplace_interior(14)
        shuffled = permute(a, rng.permutation(a.n_rows))
        _, li_bad, _ = symbolic_cholesky(shuffled)
        _, li_nd, _ = symbolic_cholesky(permute(shuffled, nested_dissection(shuffled)))
        assert li_nd.size < li_bad.size

    def test_leaf_size_respected_structurally(self):
        a = _laplace_interior(8)
        # any leaf size yields a valid permutation
        for leaf in (1, 8, 64, 10_000):
            p = nested_dissection(a, leaf_size=leaf)
            assert np.array_equal(np.sort(p), np.arange(a.n_rows))

    def test_single_vertex(self):
        a = CsrMatrix.from_dense(np.array([[2.0]]))
        assert nested_dissection(a).tolist() == [0]

    def test_disconnected(self):
        d = np.zeros((8, 8))
        for i, j in [(0, 1), (1, 2), (4, 5), (5, 6)]:
            d[i, j] = d[j, i] = 1.0
        np.fill_diagonal(d, 3.0)
        p = nested_dissection(CsrMatrix.from_dense(d), leaf_size=2)
        assert np.array_equal(np.sort(p), np.arange(8))


class TestEtree:
    def test_chain_matrix_etree(self):
        # tridiagonal: parent[j] = j+1
        n = 6
        d = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1)
        parent = elimination_tree(CsrMatrix.from_dense(d))
        np.testing.assert_array_equal(parent[:-1], np.arange(1, n))
        assert parent[-1] == -1

    def test_postorder_is_permutation_and_topological(self):
        a = random_spd(20, seed=3)
        parent = elimination_tree(a)
        post = postorder(parent)
        assert np.array_equal(np.sort(post), np.arange(20))
        pos = np.empty(20, dtype=int)
        pos[post] = np.arange(20)
        for j in range(20):
            if parent[j] >= 0:
                assert pos[j] < pos[parent[j]]  # children before parents

    def test_symbolic_pattern_covers_numeric_factor(self):
        a = random_spd(25, seed=7)
        lptr, lind, _ = symbolic_cholesky(a)
        l = np.linalg.cholesky(a.todense())
        pattern = np.zeros((25, 25), dtype=bool)
        rows = np.repeat(np.arange(25), np.diff(lptr))
        pattern[rows, lind] = True
        assert not np.any((np.abs(l) > 1e-12) & ~pattern)

    def test_symbolic_includes_diagonal(self):
        a = random_spd(10, seed=1)
        lptr, lind, _ = symbolic_cholesky(a)
        rows = np.repeat(np.arange(10), np.diff(lptr))
        for i in range(10):
            assert i in set(lind[rows == i])

    def test_column_counts_match_pattern(self):
        a = random_spd(15, seed=2)
        _, lind, _ = symbolic_cholesky(a)
        counts = column_counts(a)
        ref = np.bincount(lind, minlength=15)
        np.testing.assert_array_equal(counts, ref)

    def test_natural_is_identity(self):
        np.testing.assert_array_equal(natural(5), np.arange(5))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 1000))
def test_property_orderings_are_permutations(n, seed):
    a = random_spd(n, seed=seed)
    p = nested_dissection(a, leaf_size=3)
    assert np.array_equal(np.sort(p), np.arange(n))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 15), seed=st.integers(0, 1000))
def test_property_etree_parent_above_child(n, seed):
    a = random_spd(n, seed=seed)
    parent = elimination_tree(a)
    idx = np.arange(n)
    mask = parent >= 0
    assert np.all(parent[mask] > idx[mask])
