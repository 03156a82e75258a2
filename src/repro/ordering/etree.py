"""Elimination tree and symbolic Cholesky analysis.

This is the *symbolic factorization* phase shared by the direct solvers
(phase (a) of the three-phase Trilinos solver structure described in
Section V-A.1 of the paper): given only the sparsity pattern, compute the
elimination tree, a postordering, per-column factor counts, and the full
factor pattern.  The numeric phases of :mod:`repro.direct` reuse these
across refactorizations with unchanged patterns -- exactly the property
that makes Tacho's setup cheap relative to SuperLU's in Table III.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.sparse.spadd import spadd

__all__ = ["elimination_tree", "postorder", "column_counts", "symbolic_cholesky"]


def _lower_pattern(a: CsrMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise pattern of the strict lower triangle of ``A + A^T``."""
    s = spadd(a.pattern(), a.transpose().pattern())
    indptr, indices = s.indptr, s.indices
    n = s.n_rows
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep = indices < rows
    np.add.at(out_ptr, rows[keep] + 1, 1)
    np.cumsum(out_ptr, out=out_ptr)
    return out_ptr, indices[keep]


def _liu_etree(n: int, lptr: List[int], lind: List[int]) -> List[int]:
    """Liu's algorithm with path compression over a strict-lower pattern.

    Runs on Python lists: the traversal is scalar pointer chasing, and a
    list element access costs a fraction of a numpy scalar one.
    """
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        for j in lind[lptr[i] : lptr[i + 1]]:
            # walk from j up to the root of its current virtual tree
            while ancestor[j] != -1 and ancestor[j] != i:
                nxt = ancestor[j]
                ancestor[j] = i  # path compression
                j = nxt
            if ancestor[j] == -1:
                ancestor[j] = i
                parent[j] = i
    return parent


def elimination_tree(a: CsrMatrix) -> np.ndarray:
    """Elimination tree of the Cholesky factor of ``A`` (pattern only).

    Returns ``parent`` with ``parent[j] = -1`` for roots.  Uses Liu's
    algorithm with path compression (virtual ancestors).
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    lptr, lind = _lower_pattern(a)
    parent = _liu_etree(a.n_rows, lptr.tolist(), lind.tolist())
    return np.asarray(parent, dtype=np.int64)


def postorder(parent: np.ndarray) -> np.ndarray:
    """Depth-first postordering of a forest given by ``parent`` pointers.

    Children of each node are visited in increasing index order, making
    the postorder deterministic.
    """
    n = parent.size
    # build child lists
    children: List[List[int]] = [[] for _ in range(n)]
    roots: List[int] = []
    for j in range(n):
        p = int(parent[j])
        if p == -1:
            roots.append(j)
        else:
            children[p].append(j)
    post = np.empty(n, dtype=np.int64)
    k = 0
    for root in roots:
        # iterative DFS emitting nodes in postorder
        stack = [(root, 0)]
        while stack:
            node, ci = stack.pop()
            if ci < len(children[node]):
                stack.append((node, ci + 1))
                stack.append((children[node][ci], 0))
            else:
                post[k] = node
                k += 1
    if k != n:
        raise AssertionError("parent array is not a forest")
    return post


def symbolic_cholesky(a: CsrMatrix) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full symbolic Cholesky: pattern of ``L`` (including the diagonal).

    Row ``i`` of ``L`` is computed as the union of the paths from each
    nonzero ``A(i, k)``, ``k < i``, up the elimination tree towards ``i``
    (Gilbert's row-subtree characterization).

    Returns ``(l_indptr, l_indices, parent)`` with column indices sorted
    within each row; the diagonal entry is always present.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    n = a.n_rows
    lptr_arr, lind_arr = _lower_pattern(a)
    lptr, lind = lptr_arr.tolist(), lind_arr.tolist()
    parent = _liu_etree(n, lptr, lind)
    mark = [-1] * n
    l_indices: List[int] = []
    l_indptr = [0] * (n + 1)
    for i in range(n):
        reach = [i]
        mark[i] = i
        for j in lind[lptr[i] : lptr[i + 1]]:
            while mark[j] != i:
                mark[j] = i
                reach.append(j)
                j = parent[j]
                if j == -1:  # pragma: no cover - etree guarantees path to i
                    break
        reach.sort()
        l_indices.extend(reach)
        l_indptr[i + 1] = len(l_indices)
    return (
        np.asarray(l_indptr, dtype=np.int64),
        np.asarray(l_indices, dtype=np.int64),
        np.asarray(parent, dtype=np.int64),
    )


def column_counts(a: CsrMatrix) -> np.ndarray:
    """Number of nonzeros in each *column* of the Cholesky factor ``L``.

    Derived from the full symbolic factorization (exact, not the skeleton
    approximation); used for supernode detection and the machine model's
    flop counts.
    """
    l_indptr, l_indices, _ = symbolic_cholesky(a)
    counts = np.zeros(a.n_rows, dtype=np.int64)
    np.add.at(counts, l_indices, 1)
    return counts
