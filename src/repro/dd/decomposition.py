"""Nonoverlapping domain decompositions.

A :class:`Decomposition` owns the node-level partition of the assembled
problem: every mesh node (a block of ``dofs_per_node`` matrix rows)
belongs to exactly one subdomain.  Partitions come either from the
structured box split of the generating grid (the paper's setting) or
from algebraic recursive bisection of the node graph (the METIS-like
fallback for matrices without grid information).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sparse.csr import CsrMatrix
from repro.sparse.graph import symmetrize_pattern

__all__ = ["Decomposition", "node_graph"]


def node_graph(a: CsrMatrix, dofs_per_node: int) -> CsrMatrix:
    """Condense the dof matrix graph to the node level.

    Nodes ``u`` and ``v`` are adjacent when any dof of ``u`` couples to
    any dof of ``v``.  For scalar problems this is the symmetrized
    matrix graph itself.
    """
    if a.n_rows % dofs_per_node != 0:
        raise ValueError("matrix size is not a multiple of dofs_per_node")
    g = symmetrize_pattern(a)
    if dofs_per_node == 1:
        return g
    n_nodes = a.n_rows // dofs_per_node
    rows = np.repeat(np.arange(g.n_rows, dtype=np.int64), g.row_nnz())
    nr = rows // dofs_per_node
    nc = g.indices // dofs_per_node
    keep = nr != nc
    vals = np.ones(int(keep.sum()))
    return CsrMatrix.from_coo(nr[keep], nc[keep], vals, (n_nodes, n_nodes)).pattern()


@dataclass
class Decomposition:
    """A nonoverlapping node partition of an assembled problem.

    Attributes
    ----------
    a:
        The assembled global matrix.
    dofs_per_node:
        Block size (3 for 3D elasticity).
    node_parts:
        One sorted int64 node array per subdomain; a partition.
    graph:
        Node-level adjacency graph (pattern CSR).
    """

    a: CsrMatrix
    dofs_per_node: int
    node_parts: List[np.ndarray]
    graph: CsrMatrix

    def __post_init__(self) -> None:
        n_nodes = self.a.n_rows // self.dofs_per_node
        owner = np.full(n_nodes, -1, dtype=np.int64)
        for i, part in enumerate(self.node_parts):
            if np.any(owner[part] != -1):
                raise ValueError("node partition overlaps")
            owner[part] = i
        if np.any(owner < 0):
            raise ValueError("node partition does not cover all nodes")
        self.node_owner = owner

    # ------------------------------------------------------------------
    @property
    def n_subdomains(self) -> int:
        """Number of subdomains (MPI ranks in the paper's runs)."""
        return len(self.node_parts)

    @property
    def n_nodes(self) -> int:
        """Number of mesh nodes in the reduced problem."""
        return self.a.n_rows // self.dofs_per_node

    def dofs_of_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Expand node ids to their dof ids (node-major, sorted)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        d = self.dofs_per_node
        return (d * nodes[:, None] + np.arange(d)[None, :]).ravel()

    def dof_parts(self) -> List[np.ndarray]:
        """The dof-level nonoverlapping partition."""
        return [self.dofs_of_nodes(p) for p in self.node_parts]

    def neighbors_of(self, rank: int) -> List[int]:
        """Subdomains adjacent to ``rank`` in the node graph.

        Two subdomains are neighbors when any node of one couples to a
        node of the other; this is the set a halo exchange touches and
        the candidate pool for :meth:`merge_into_neighbor` and for
        buddy-checkpoint placement in :mod:`repro.ft`.
        """
        part = self.node_parts[rank]
        if part.size == 0:
            return []
        cols = np.concatenate(
            [
                self.graph.indices[self.graph.indptr[u]: self.graph.indptr[u + 1]]
                for u in part
            ]
        )
        owners = np.unique(self.node_owner[cols])
        return [int(o) for o in owners if o != rank]

    def merge_into_neighbor(
        self, dead: int, into: "int | None" = None
    ) -> "Decomposition":
        """The partition with subdomain ``dead`` absorbed by a neighbor.

        This is the *shrink* recovery of :mod:`repro.ft`: when a rank
        dies without a respawn slot, its nonoverlapping part is merged
        into an adjacent surviving subdomain and the solver continues on
        one rank fewer.  ``into`` defaults to the smallest adjacent
        subdomain (ties broken by rank index) to keep the merged load as
        balanced as possible.  Ranks above ``dead`` shift down by one in
        the returned decomposition; the matrix and node graph are shared
        (only the partition changes).
        """
        if not (0 <= dead < self.n_subdomains):
            raise ValueError(
                f"dead rank {dead} out of range [0, {self.n_subdomains})"
            )
        if self.n_subdomains < 2:
            raise ValueError("cannot remove the only subdomain")
        if into is None:
            candidates = self.neighbors_of(dead) or [
                r for r in range(self.n_subdomains) if r != dead
            ]
            into = min(candidates, key=lambda r: (self.node_parts[r].size, r))
        if into == dead or not (0 <= into < self.n_subdomains):
            raise ValueError(
                f"merge target {into} invalid for dead rank {dead} "
                f"({self.n_subdomains} subdomains)"
            )
        parts = []
        for r, p in enumerate(self.node_parts):
            if r == dead:
                continue
            if r == into:
                p = np.sort(np.concatenate([p, self.node_parts[dead]]))
            parts.append(p)
        return Decomposition(self.a, self.dofs_per_node, parts, self.graph)

    def with_values(self, a_new: CsrMatrix) -> "Decomposition":
        """The same partition plan over a same-pattern matrix.

        The node graph and partition depend only on the sparsity
        pattern, so a refactorization sequence shares them; a changed
        pattern raises
        :class:`~repro.reuse.fingerprint.PatternChangedError`.
        """
        from repro.reuse.fingerprint import check_same_pattern, pattern_fingerprint

        check_same_pattern(pattern_fingerprint(self.a), a_new, "decomposition")
        return Decomposition(a_new, self.dofs_per_node, self.node_parts, self.graph)

    # ------------------------------------------------------------------
    @classmethod
    def from_box_partition(
        cls, problem, px: int, py: int, pz: int = 1
    ) -> "Decomposition":
        """Partition a FEM problem's free nodes by the grid box split.

        ``problem`` is a :class:`~repro.fem.laplace.ScalarProblem` or
        :class:`~repro.fem.elasticity.ElasticityProblem`; boxes that lose
        all their nodes to the Dirichlet face are dropped.
        """
        grid_parts = problem.grid.box_partition(px, py, pz)
        # map grid node ids -> reduced node ids
        n_grid = problem.grid.n_nodes
        reduced = np.full(n_grid, -1, dtype=np.int64)
        reduced[problem.free_nodes] = np.arange(problem.free_nodes.size)
        parts = []
        for p in grid_parts:
            rp = reduced[p]
            rp = rp[rp >= 0]
            if rp.size:
                parts.append(np.sort(rp))
        g = node_graph(problem.a, problem.dofs_per_node)
        return cls(problem.a, problem.dofs_per_node, parts, g)

    @classmethod
    def algebraic(
        cls, a: CsrMatrix, n_parts: int, dofs_per_node: int = 1
    ) -> "Decomposition":
        """Recursive-bisection partition of the node graph (METIS-like).

        Splits the node set into ``n_parts`` parts of near-equal size by
        repeatedly bisecting with BFS level structures.
        """
        g = node_graph(a, dofs_per_node)
        n_nodes = g.n_rows
        from repro.ordering.nested_dissection import bisect

        parts: List[np.ndarray] = []
        # work queue of (vertex set, parts to produce)
        queue = [(np.arange(n_nodes, dtype=np.int64), n_parts)]
        while queue:
            verts, k = queue.pop()
            if k == 1 or verts.size <= 1:
                parts.append(np.sort(verts))
                continue
            left, sep, right = bisect(g.indptr, g.indices, verts, n_nodes)
            # fold the separator into the smaller side to balance sizes
            if left.size <= right.size:
                left = np.concatenate([left, sep])
            else:
                right = np.concatenate([right, sep])
            if left.size == 0 or right.size == 0:
                # unsplittable (complete subgraph); chop by index
                half = verts.size * (k // 2) // k
                left, right = verts[:half], verts[half:]
            kl = k // 2
            queue.append((left, kl))
            queue.append((right, k - kl))
        return cls(a, dofs_per_node, parts, g)
