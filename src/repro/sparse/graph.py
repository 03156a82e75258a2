"""Graph algorithms on sparse-matrix patterns.

The domain-decomposition layer treats the matrix as a graph: overlap
extension is a k-layer BFS (``expand_layers``), interface-component
classification needs connected components, and nested dissection
needs BFS level structures and pseudo-peripheral nodes.  All routines
work on the *symmetrized* pattern, as FROSch's algebraic machinery
does.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.sparse.spadd import spadd

__all__ = [
    "symmetrize_pattern",
    "adjacency_from_pattern",
    "bfs_levels",
    "expand_layers",
    "connected_components",
    "pseudo_peripheral_node",
    "subgraph_components",
]


def symmetrize_pattern(a: CsrMatrix) -> CsrMatrix:
    """Return the pattern of ``A + A^T`` with unit values and no diagonal.

    This is the undirected adjacency structure used by every graph routine
    below.
    """
    s = spadd(a.pattern(), a.transpose().pattern())
    # strip the diagonal: graph algorithms want pure adjacency
    rows = np.repeat(np.arange(s.n_rows, dtype=np.int64), s.row_nnz())
    keep = rows != s.indices
    indptr = np.zeros(s.n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows[keep] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(
        indptr, s.indices[keep], np.ones(int(keep.sum()), dtype=np.float64), s.shape
    )


def adjacency_from_pattern(a: CsrMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(indptr, indices)`` of the symmetrized, diagonal-free pattern."""
    g = symmetrize_pattern(a)
    return g.indptr, g.indices


def bfs_levels(
    indptr: np.ndarray, indices: np.ndarray, seeds: Iterable[int], n: int
) -> np.ndarray:
    """Multi-source BFS; returns the level of every vertex (-1 if unreached).

    Vectorized frontier expansion: each sweep gathers all neighbors of the
    current frontier at once.
    """
    level = np.full(n, -1, dtype=np.int64)
    frontier = np.unique(np.asarray(list(seeds), dtype=np.int64))
    if frontier.size == 0:
        return level
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        from repro.sparse.spgemm import _concat_ranges

        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        nbrs = indices[_concat_ranges(starts, lens)]
        nbrs = np.unique(nbrs)
        new = nbrs[level[nbrs] < 0]
        level[new] = depth
        frontier = new
    return level


def expand_layers(
    indptr: np.ndarray, indices: np.ndarray, seeds: np.ndarray, layers: int, n: int
) -> np.ndarray:
    """Grow an index set by ``layers`` graph layers (algebraic overlap).

    Returns the sorted union of ``seeds`` and every vertex within graph
    distance ``layers`` of it.  With ``layers=1`` this is exactly the
    algebraic overlap `\\delta = 1` used throughout the paper's
    experiments.
    """
    level = bfs_levels(indptr, indices, seeds, n)
    return np.flatnonzero((level >= 0) & (level <= layers)).astype(np.int64)


def connected_components(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """Label connected components of an undirected graph.

    Returns an array of component ids in ``[0, n_components)``.
    """
    comp = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        level = bfs_levels(indptr, indices, [start], n)
        members = level >= 0
        # restrict to still-unlabeled (bfs may cross labeled in disconnected runs)
        members &= comp < 0
        comp[members] = next_id
        next_id += 1
    return comp


def subgraph_components(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray, n: int
) -> list:
    """Connected components of the subgraph induced by ``vertices``.

    Returns a list of int64 arrays of *global* vertex ids, one per
    component.  Used to split interface equivalence classes into the
    connected vertex/edge/face components of the GDSW coarse space.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    in_set = np.zeros(n, dtype=bool)
    in_set[vertices] = True
    seen = np.zeros(n, dtype=bool)
    out = []
    from repro.sparse.spgemm import _concat_ranges

    for v in vertices:
        if seen[v]:
            continue
        # BFS restricted to in_set
        comp = [v]
        seen[v] = True
        frontier = np.array([v], dtype=np.int64)
        while frontier.size:
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            nbrs = indices[_concat_ranges(starts, lens)]
            nbrs = np.unique(nbrs)
            new = nbrs[in_set[nbrs] & ~seen[nbrs]]
            seen[new] = True
            comp.append(new)
            frontier = new
        out.append(np.sort(np.concatenate([np.atleast_1d(c) for c in comp])))
    return out


def pseudo_peripheral_node(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray, n: int
) -> Tuple[int, np.ndarray]:
    """Find a pseudo-peripheral vertex of the induced subgraph (GPS heuristic).

    Repeatedly BFS from the farthest vertex of the previous sweep until the
    eccentricity stops growing.  Returns ``(vertex, levels)`` where
    ``levels`` is the restricted BFS level array of the final sweep (-1 off
    the subgraph).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        raise ValueError("empty vertex set")
    in_set = np.zeros(n, dtype=bool)
    in_set[vertices] = True

    def restricted_bfs(seed: int) -> np.ndarray:
        from repro.sparse.spgemm import _concat_ranges

        level = np.full(n, -1, dtype=np.int64)
        level[seed] = 0
        frontier = np.array([seed], dtype=np.int64)
        depth = 0
        while frontier.size:
            depth += 1
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            nbrs = indices[_concat_ranges(starts, lens)]
            nbrs = np.unique(nbrs)
            new = nbrs[in_set[nbrs] & (level[nbrs] < 0)]
            level[new] = depth
            frontier = new
        return level

    node = int(vertices[0])
    level = restricted_bfs(node)
    ecc = int(level.max())
    while True:
        reached = np.flatnonzero(level == ecc)
        # among the farthest, pick the one of minimum degree (GPS refinement)
        degs = indptr[reached + 1] - indptr[reached]
        cand = int(reached[np.argmin(degs)])
        new_level = restricted_bfs(cand)
        new_ecc = int(new_level.max())
        if new_ecc <= ecc:
            return cand, new_level
        node, level, ecc = cand, new_level, new_ecc
