"""GDSW / rGDSW coarse spaces and the energy-minimizing extension.

Following Section III of the paper:

1. the interface is split into components (``repro.dd.interface``);
2. diagonal scaling matrices ``D_{Gamma_i}`` form a partition of unity
   on the interface (for classical GDSW the components are disjoint and
   ``D = I``; for rGDSW each face/edge node distributes its weight over
   the covering vertex components, Option 1 of [Dohrmann & Widlund]);
3. per component and null-space vector, an interface basis column is
   the weighted restriction ``D_{Gamma_i} R_{Gamma_i} (R_Gamma Z)``;
   linearly dependent columns (e.g. rotations restricted to a single
   vertex node) are removed by a rank-revealing orthonormalization;
4. the interior values are the energy-minimizing discrete harmonic
   extension ``Phi_I = -A_II^{-1} A_IG Phi_Gamma`` (Eq. 2), computed
   subdomain-by-subdomain since ``A_II`` is block diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dd.decomposition import Decomposition
from repro.dd.interface import InterfaceAnalysis, InterfaceComponent
from repro.machine.kernels import KernelProfile
from repro.sparse.blocks import extract_submatrix
from repro.sparse.csr import CsrMatrix

__all__ = ["CoarseSpace", "build_coarse_space", "energy_minimizing_extension"]


@dataclass
class CoarseSpace:
    """An interface coarse basis before/after extension.

    Attributes
    ----------
    phi:
        The full coarse basis ``Phi`` (n x n_coarse, CSR); None until
        :func:`energy_minimizing_extension` fills it.
    phi_gamma:
        Interface basis (n_interface_dofs x n_coarse, CSR), rows ordered
        by ``interface_dofs``.
    interface_dofs, interior_dofs:
        Global dof ids of the interface/interior split.
    weights:
        Per coarse component, the ``(nodes, weights)`` partition-of-unity
        data (for the tests).
    variant:
        ``"gdsw"``, ``"rgdsw"``, ``"agdsw"`` or ``"spectral"``.
    eigenvalues:
        For ``"spectral"`` spaces, the kept generalized eigenvalues per
        subdomain (ascending); the verify invariants audit these against
        ``tau``/``max_vectors_per_subdomain``.
    tau, max_vectors_per_subdomain:
        The selection parameters the ``"spectral"`` space was built with.
    """

    phi_gamma: CsrMatrix
    interface_dofs: np.ndarray
    interior_dofs: np.ndarray
    weights: List[Tuple[np.ndarray, np.ndarray]]
    variant: str
    phi: Optional[CsrMatrix] = None
    eigenvalues: Optional[List[np.ndarray]] = None
    tau: Optional[float] = None
    max_vectors_per_subdomain: Optional[int] = None

    @property
    def n_coarse(self) -> int:
        """Dimension of the coarse space."""
        return self.phi_gamma.n_cols

    def partition_of_unity_error(self) -> float:
        """Max deviation of the node weights from summing to one."""
        acc: Dict[int, float] = {}
        for nodes, w in self.weights:
            for node, wv in zip(nodes.tolist(), w.tolist()):
                acc[node] = acc.get(node, 0.0) + wv
        if not acc:
            return 0.0
        return float(max(abs(v - 1.0) for v in acc.values()))


def _rank_reduce(
    cols: np.ndarray, tol: float = 1e-10, orthonormal: bool = False
) -> np.ndarray:
    """Rank-revealing basis of the column span (drops dependent columns).

    By default returns the singular-value-scaled left singular vectors
    ``u[:, :rank] * s[:rank]`` — orthogonal columns whose Gram matrix is
    ``diag(s[:rank]**2)``, preserving the magnitude of the input columns
    (the partition-of-unity weights ride on the column scale, and the
    historical GDSW/rGDSW bases are built from this form bit-for-bit).
    With ``orthonormal=True`` the scaling is dropped and the columns are
    an orthonormal basis (Gram matrix = identity), which is what
    eigenvector blocks want.  Both spans are identical; the coarse
    operator ``Phi A0^{-1} Phi^T`` is invariant under the column scaling
    in exact arithmetic.
    """
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return cols[:, :0]
    rank = int(np.sum(s > tol * s[0]))
    if orthonormal:
        return u[:, :rank].copy()
    return u[:, :rank] * s[:rank]


def build_coarse_space(
    dec: Decomposition,
    analysis: InterfaceAnalysis,
    nullspace: np.ndarray,
    variant: str = "rgdsw",
) -> CoarseSpace:
    """Build the interface coarse basis ``Phi_Gamma``.

    Parameters
    ----------
    dec:
        The nonoverlapping decomposition.
    analysis:
        Interface analysis of ``dec``.
    nullspace:
        ``(n, n_n)`` null space of the global Neumann operator (rigid
        body modes for elasticity, constants for Laplace).
    variant:
        ``"gdsw"`` -- one basis group per interface component;
        ``"rgdsw"`` -- vertex components only, with multiplicity-weighted
        partition of unity (the paper's configuration).
    """
    if variant not in ("gdsw", "rgdsw"):
        raise ValueError(f"unknown coarse space variant {variant!r}")
    z = np.atleast_2d(np.asarray(nullspace, dtype=np.float64))
    if z.shape[0] != dec.a.n_rows:
        raise ValueError("null space row count must match the matrix")

    d = dec.dofs_per_node
    interface_dofs = dec.dofs_of_nodes(analysis.interface_nodes)
    interior_dofs = dec.dofs_of_nodes(analysis.interior_nodes)
    # position of each node's dof block within the interface dof vector
    node_pos = {int(v): i for i, v in enumerate(analysis.interface_nodes)}

    # ---- coarse components and their node weights ----
    comp_weights: List[Tuple[np.ndarray, np.ndarray]] = []
    if variant == "gdsw":
        for comp in analysis.components:
            comp_weights.append((comp.nodes, np.ones(comp.nodes.size)))
    else:
        vertices = [c for c in analysis.components if c.kind == "vertex"]
        vertex_sets = [frozenset(c.subdomains) for c in vertices]
        cover_nodes: List[List[np.ndarray]] = [[] for _ in vertices]
        cover_w: List[List[np.ndarray]] = [[] for _ in vertices]
        fallbacks: List[InterfaceComponent] = []
        for comp in analysis.components:
            s = frozenset(comp.subdomains)
            cover = [i for i, vs in enumerate(vertex_sets) if vs >= s]
            if not cover:
                fallbacks.append(comp)
                continue
            w = 1.0 / len(cover)
            for i in cover:
                cover_nodes[i].append(comp.nodes)
                cover_w[i].append(np.full(comp.nodes.size, w))
        for i in range(len(vertices)):
            nodes = np.concatenate(cover_nodes[i]) if cover_nodes[i] else np.empty(0, np.int64)
            w = np.concatenate(cover_w[i]) if cover_w[i] else np.empty(0)
            order = np.argsort(nodes)
            comp_weights.append((nodes[order], w[order]))
        for comp in fallbacks:
            comp_weights.append((comp.nodes, np.ones(comp.nodes.size)))

    # ---- assemble Phi_Gamma columns ----
    rows_out: List[np.ndarray] = []
    cols_out: List[np.ndarray] = []
    vals_out: List[np.ndarray] = []
    next_col = 0
    for nodes, w in comp_weights:
        if nodes.size == 0:
            continue
        supp_pos = np.asarray([node_pos[int(v)] for v in nodes], dtype=np.int64)
        supp_rows = (d * supp_pos[:, None] + np.arange(d)[None, :]).ravel()
        gdofs = dec.dofs_of_nodes(nodes)
        block = z[gdofs, :] * np.repeat(w, d)[:, None]
        block = _rank_reduce(block)
        if block.shape[1] == 0:
            continue
        r, c = np.meshgrid(
            supp_rows, np.arange(next_col, next_col + block.shape[1]), indexing="ij"
        )
        rows_out.append(r.ravel())
        cols_out.append(c.ravel())
        vals_out.append(block.ravel())
        next_col += block.shape[1]

    n_gamma = interface_dofs.size
    if next_col == 0:
        phi_gamma = CsrMatrix.from_coo(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), (n_gamma, 0)
        )
    else:
        phi_gamma = CsrMatrix.from_coo(
            np.concatenate(rows_out),
            np.concatenate(cols_out),
            np.concatenate(vals_out),
            (n_gamma, next_col),
        )
    return CoarseSpace(
        phi_gamma=phi_gamma,
        interface_dofs=interface_dofs,
        interior_dofs=interior_dofs,
        weights=comp_weights,
        variant=variant,
    )


def energy_minimizing_extension(
    dec: Decomposition,
    analysis: InterfaceAnalysis,
    space: CoarseSpace,
    interior_solver_factory: Callable[[], "object"],
    solver_cache: Optional[dict] = None,
) -> Tuple[CsrMatrix, KernelProfile, List[KernelProfile]]:
    """Extend ``Phi_Gamma`` harmonically into the subdomain interiors.

    Computes ``Phi = [ -A_II^{-1} A_IG ; I ] Phi_Gamma`` (Eq. 2) one
    subdomain at a time: ``A_II`` is block diagonal over subdomain
    interiors, so rank ``i`` factors its interior block and solves for
    the coarse columns supported near it.

    Parameters
    ----------
    interior_solver_factory:
        Zero-argument callable returning a fresh
        :class:`repro.direct.base.DirectSolver` for the interior solves
        (the paper uses Tacho here even in the ILU experiments).
    solver_cache:
        Optional mutable mapping of subdomain index to the interior
        solver factored on a previous (same-pattern) call.  On a hit,
        the interior block is *refactorized* (numeric-only when the
        solver's symbolic phase is reusable); misses populate the cache.
        The phase profiles recorded per rank are identical either way,
        because the symbolic profile is pattern-deterministic.  Without
        a cache the solvers are still kept until the call returns:
        congruent interior blocks (a box partition has few distinct
        ones) then share one symbolic analysis, see
        :func:`repro.reuse.symbolic.shared_symbolic`.

    Returns
    -------
    ``(phi, spgemm_profile, per_rank_profiles)``: the full basis, the
    profile of the global structural products, and per-rank profiles of
    the interior factor+solve work.
    """
    a = dec.a
    n = a.n_rows
    d = dec.dofs_per_node
    if solver_cache is None:
        solver_cache = {}
    # map global dof -> interface position
    gamma_pos = np.full(n, -1, dtype=np.int64)
    gamma_pos[space.interface_dofs] = np.arange(space.interface_dofs.size)

    rows_out = [
        np.repeat(space.interface_dofs, np.diff(space.phi_gamma.indptr))
    ]
    cols_out = [space.phi_gamma.indices.copy()]
    vals_out = [space.phi_gamma.data.copy()]

    from repro.sparse.spgemm import spgemm, spgemm_flops

    spgemm_profile = KernelProfile()
    rank_profiles: List[KernelProfile] = []

    interface_mask = np.zeros(dec.n_nodes, dtype=bool)
    interface_mask[analysis.interface_nodes] = True

    for part_idx, part in enumerate(dec.node_parts):
        rank_prof = KernelProfile()
        interior_nodes_i = part[~interface_mask[part]]
        if interior_nodes_i.size == 0:
            rank_profiles.append(rank_prof)
            continue
        idofs = dec.dofs_of_nodes(interior_nodes_i)
        a_ii = extract_submatrix(a, idofs, idofs)
        a_ig = extract_submatrix(a, idofs, space.interface_dofs)
        rhs_sparse = spgemm(a_ig, space.phi_gamma)
        ext_kernel = dict(
            flops=float(spgemm_flops(a_ig, space.phi_gamma)),
            bytes=float((a_ig.nnz + space.phi_gamma.nnz + rhs_sparse.nnz) * 16),
            parallelism=float(max(a_ig.n_rows, 1)),
        )
        spgemm_profile.add("coarse.extension_spgemm", **ext_kernel)
        rank_prof.add("coarse.extension_spgemm", **ext_kernel)
        active = np.unique(rhs_sparse.indices)
        if active.size == 0:
            rank_profiles.append(rank_prof)
            continue
        solver = solver_cache.get(part_idx)
        if solver is None:
            solver = solver_cache[part_idx] = interior_solver_factory()
            solver.factorize(a_ii)
        else:
            solver.refactorize(a_ii)
        rank_prof.extend(solver.symbolic_profile)
        rank_prof.extend(solver.numeric_profile)
        rhs = -rhs_sparse.todense()[:, active]
        x = solver.solve(rhs)
        # the extension solves run as ONE batched multi-RHS sweep: flops
        # scale with the column count, factor loads amortize, and the
        # level schedule launches once
        ncols = int(active.size)
        for k in solver.solve_profile:
            rank_prof.kernels.append(
                type(k)(
                    "coarse.extension_solve",
                    k.flops * ncols,
                    k.bytes * (1.0 + ncols) / 2.0,
                    k.parallelism * ncols,
                    k.launches,
                )
            )
        nz_r, nz_c = np.nonzero(np.abs(x) > 1e-14)
        rows_out.append(idofs[nz_r])
        cols_out.append(active[nz_c])
        vals_out.append(x[nz_r, nz_c])
        rank_profiles.append(rank_prof)

    phi = CsrMatrix.from_coo(
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(vals_out),
        (n, space.phi_gamma.n_cols),
    )
    space.phi = phi
    return phi, spgemm_profile, rank_profiles
