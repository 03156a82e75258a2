"""One-level overlapping additive Schwarz.

The second term of Eq. (1): ``sum_i R_i^T A_i^{-1} R_i`` with
``A_i = R_i A R_i^T`` the overlapping subdomain matrices.  Alone, this
is the classical one-level preconditioner whose iteration counts grow
with the number of subdomains -- the failure mode the GDSW coarse level
cures (and which our ablation benches demonstrate).

The sum is applied as ``R^T blkdiag(A_i)^{-1} R``: the local solves of
all subdomains (and all right-hand-side columns) advance through one
merged triangular plan instead of a per-rank loop -- the paper's "many
small subdomains per device" layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import get_backend
from repro.dd.decomposition import Decomposition
from repro.dd.local_solvers import FactoredLocal, LocalSolverSpec
from repro.dd.overlap import overlapping_subdomains
from repro.machine.kernels import KernelProfile
from repro.obs import get_tracer
from repro.resilience.context import get_engine
from repro.reuse.cache import get_artifact_cache
from repro.reuse.fingerprint import partition_fingerprint, pattern_fingerprint
from repro.sparse.blocks import extract_submatrix
from repro.sparse.csr import CsrMatrix
from repro.tri.factored import FactoredSolve

__all__ = ["OneLevelSchwarz"]


class _MergedLocals:
    """``blkdiag(A_i)^{-1}`` over all ranks: one merged solve per solver kind.

    ``sum_i R_i^T A_i^{-1} R_i = R^T blkdiag(A_i)^{-1} R``, and a
    block-diagonal triangular factor is one more triangular factor whose
    level count is the maximum over the subdomains, not the sum.  Ranks
    are grouped by the :attr:`~repro.tri.factored.FactoredSolve.signature`
    of their local solve (one group unless a recovery ladder moved a
    rank to another solver kind) and each group's descriptions merge
    into one.  The plan remembers the very ``FactoredLocal`` objects it
    was built from: replacing any entry of ``locals`` makes it stale.
    """

    def __init__(self, locals_: Sequence[FactoredLocal]) -> None:
        self.locals = list(locals_)
        bounds = np.concatenate([[0], np.cumsum([loc.stages.n for loc in locals_])])
        by_kind: Dict[tuple, List[int]] = {}
        for rank, loc in enumerate(locals_):
            by_kind.setdefault(loc.stages.signature, []).append(rank)
        #: ``(positions, solve)`` per kind; positions index the
        #: rank-major vector (None: the one group covers all of it)
        self.groups: List[Tuple[Optional[np.ndarray], FactoredSolve]] = []
        for ranks in by_kind.values():
            positions = None
            if len(by_kind) > 1:
                positions = np.concatenate(
                    [np.arange(bounds[r], bounds[r + 1]) for r in ranks]
                )
            solve = FactoredSolve.block_diag([locals_[r].stages for r in ranks])
            self.groups.append((positions, solve))

    def built_from(self, locals_: Sequence[FactoredLocal]) -> bool:
        """True while ``locals_`` still holds exactly the merged objects."""
        return len(locals_) == len(self.locals) and all(
            a is b for a, b in zip(locals_, self.locals)
        )

    def solve(self, x: np.ndarray) -> np.ndarray:
        """All local solves on the rank-major ``x`` (1-D or ``(N, k)``)."""
        if len(self.groups) == 1:
            return self.groups[0][1].apply(x)
        out = np.empty(x.shape, dtype=np.float64)
        for positions, solve in self.groups:
            out[positions] = solve.apply(x[positions])
        return out


class OneLevelSchwarz:
    """One-level additive Schwarz operator.

    Parameters
    ----------
    dec:
        Nonoverlapping decomposition.
    spec:
        Local solver configuration.
    overlap:
        Number of algebraic overlap layers (paper: 1).
    restricted:
        Apply restricted-additive-Schwarz weighting (each dof's
        correction taken only from its owner; reduces communication and
        often iterations).  The paper uses plain additive Schwarz
        (False).
    reuse_from:
        An existing :class:`OneLevelSchwarz` built over the *same matrix
        values* (typically the pre-failure operator during a
        :mod:`repro.ft` shrink recovery).  Ranks whose overlapping dof
        set is identical to one of the donor's reuse its factorization
        outright -- after a single-subdomain merge only the subdomains
        overlapping the merged region need refactoring.

    Attributes
    ----------
    locals:
        Per-rank :class:`FactoredLocal` objects.
    dof_sets:
        Per-rank overlapping dof index sets (the ``R_i``).
    halo_doubles:
        Per-rank count of dofs imported from other ranks for one apply
        (the halo-exchange payload the runtime prices).
    """

    def __init__(
        self,
        dec: Decomposition,
        spec: LocalSolverSpec,
        overlap: int = 1,
        restricted: bool = False,
        reuse_from: "OneLevelSchwarz | None" = None,
    ) -> None:
        self.dec = dec
        self.spec = spec
        self.overlap = overlap
        self.restricted = restricted

        tr = get_tracer()
        with tr.span("setup/overlap") as sp:
            sp.annotate(overlap=overlap)
            # the overlap import plan is pattern-only: same matrix
            # pattern + same partition -> same node sets, so it lives
            # in the ambient pattern-keyed artifact cache
            cache = get_artifact_cache()
            key = (
                "overlap",
                pattern_fingerprint(dec.a),
                partition_fingerprint(dec.node_parts),
                int(overlap),
            )
            node_sets = cache.get(key)
            if node_sets is None:
                node_sets = overlapping_subdomains(dec, overlap)
                cache.put(key, node_sets)
            self.node_sets = node_sets
            self.dof_sets: List[np.ndarray] = [
                dec.dofs_of_nodes(ns) for ns in node_sets
            ]
            # precomputed scatter plan for apply(): one concatenated
            # index vector drives a single bincount accumulation
            self._scatter_dofs = (
                np.concatenate(self.dof_sets)
                if self.dof_sets
                else np.empty(0, dtype=np.int64)
            )
            # rank r owns [bounds[r], bounds[r + 1]) of that rank-major order
            self._rank_bounds = np.concatenate(
                [[0], np.cumsum([d.size for d in self.dof_sets])]
            ).astype(np.int64)
        self.locals: List[FactoredLocal] = []
        self.matrices: List[CsrMatrix] = []
        # donor factorizations keyed by their overlapping dof set; valid
        # only because reuse_from shares the matrix values (documented
        # contract), so an identical dof set implies an identical A_i
        donor = {}
        if reuse_from is not None and reuse_from.spec == spec:
            for d, a_i, loc in zip(
                reuse_from.dof_sets, reuse_from.matrices, reuse_from.locals
            ):
                donor[d.tobytes()] = (a_i, loc)
        eng = get_engine()
        if eng is not None:
            eng.register_one_level(self)
        for rank, dofs in enumerate(self.dof_sets):
            hit = donor.get(dofs.tobytes())
            if hit is not None:
                with tr.span("reuse/skip_setup", rank=rank) as sp:
                    sp.annotate(solver=spec.describe(), n=int(dofs.size))
                    a_i, loc = hit
                    self.matrices.append(a_i)
                    self.locals.append(loc)
                continue
            with tr.span("setup/local_factor", rank=rank) as sp:
                sp.annotate(solver=spec.describe(), n=int(dofs.size))
                a_i = extract_submatrix(dec.a, dofs, dofs)
                if eng is not None:
                    # resilience hooks: fault injection, breakdown
                    # capture, and the per-subdomain escalation ladder
                    a_i, loc = eng.build_local(rank, spec, a_i)
                else:
                    loc = spec.build(a_i)
                self.matrices.append(a_i)
                self.locals.append(loc)

        # halo sizes: dofs in the overlapping set not owned by the rank
        self.halo_doubles = []
        for rank, ns in enumerate(node_sets):
            owned = dec.node_owner[ns] == rank
            self.halo_doubles.append(
                int((ns.size - int(owned.sum())) * dec.dofs_per_node)
            )

        if restricted:
            self._weights = []
            for rank, ns in enumerate(node_sets):
                w = (dec.node_owner[ns] == rank).astype(np.float64)
                self._weights.append(np.repeat(w, dec.dofs_per_node))
            self._scatter_weights = np.concatenate(self._weights)
        else:
            self._weights = None
            self._scatter_weights = None

        # the merged local solve is part of setup, not of the first apply
        self._plan: Optional[_MergedLocals] = None
        self._merged()

    # ------------------------------------------------------------------
    @property
    def n_subdomains(self) -> int:
        """Number of overlapping subdomains."""
        return len(self.dof_sets)

    def refactor(self, dec_new: Decomposition) -> None:
        """Numeric-only refactorization over a same-pattern matrix.

        Reuses every pattern-derived artifact (overlap node/dof sets,
        scatter plan, halo sizes, RAS weights) and refactorizes each
        local solver in place: symbolic-reusable kinds re-run only their
        numeric phase, SuperLU rebuilds.  ``dec_new`` must share the
        pattern and partition of the original decomposition (enforced by
        :meth:`Decomposition.with_values` upstream and by the per-solver
        pattern guards here).
        """
        tr = get_tracer()
        self.dec = dec_new
        for rank, dofs in enumerate(self.dof_sets):
            with tr.span("reuse/local_refactor", rank=rank) as sp:
                a_i = extract_submatrix(dec_new.a, dofs, dofs)
                loc = self.locals[rank].refactor(a_i)
                sp.annotate(
                    solver=self.spec.describe(),
                    reused_symbolic=loc.symbolic_reusable,
                )
                self.matrices[rank] = a_i
                self.locals[rank] = loc
        self._merged()

    def _merged(self) -> _MergedLocals:
        """The merged local solve of the *current* ``locals``.

        Keyed on the identity of the ``locals`` entries, so every
        in-place replacement (:meth:`refactor`, a resilience-ladder
        rebuild, a respawn repair, a mixed-kind escalation) invalidates
        it without the replacing code knowing the plan exists.
        """
        if self._plan is None or not self._plan.built_from(self.locals):
            self._plan = _MergedLocals(self.locals)
        return self._plan

    def _per_rank(self, hook, x: np.ndarray) -> None:
        """Pass every rank's slice of the rank-major ``x`` through ``hook``.

        The resilience hooks take one rank's 1-D vector in dof order; a
        block is handed over column by column.
        """
        for rank in range(len(self.dof_sets)):
            part = x[self._rank_bounds[rank] : self._rank_bounds[rank + 1]]
            if x.ndim == 1:
                part[:] = hook(rank, part)
            else:
                for j in range(x.shape[1]):
                    part[:, j] = hook(rank, part[:, j])

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``sum_i R_i^T (D_i) A_i^{-1} R_i v`` to ``v`` (``(n,)`` or ``(n, k)``).

        One gather into rank-major order, the merged local solve of all
        subdomains (and all columns), one scatter-add.  A rank's slice
        of the merged solve equals its own ``locals[rank].apply`` and
        column ``j`` of a block equals the apply of column ``j``, both
        bit for bit.  The gather/scatter halves route through the array
        backend of ``v``; the local solves are host solvers (they wrap
        factored objects), so a non-numpy ``v`` is transferred once per
        apply.
        """
        with get_tracer().span("apply/local_solve") as sp:
            bk = get_backend(v)
            v = bk.astype(bk.asarray(v), np.float64)
            columns = 1 if v.ndim == 1 else v.shape[1]
            sp.count("local_solves", float(columns * len(self.dof_sets)))
            v_host = v if bk.is_numpy else bk.to_numpy(v)
            if not self.dof_sets:
                return bk.zeros(v_host.shape, dtype=np.float64)
            eng = get_engine()
            x = v_host[self._scatter_dofs]
            if eng is not None:
                self._per_rank(eng.filter_restrict, x)
            x = self._merged().solve(x)
            if eng is not None:
                self._per_rank(eng.check_local_solution, x)
            if self._scatter_weights is not None:
                w = self._scatter_weights
                x = x * (w if x.ndim == 1 else w[:, None])
            # bincount accumulates sequentially in input order, so the
            # rank-major order reproduces a per-rank ``np.add.at`` loop
            # bit for bit
            n = v_host.shape[0]
            if x.ndim == 1:
                return bk.scatter_add(self._scatter_dofs, x, n)
            return bk.stack(
                [
                    bk.scatter_add(self._scatter_dofs, x[:, j], n)
                    for j in range(columns)
                ],
                axis=1,
            )

    # ------------------------------------------------------------------
    def rank_solve_profile(self, rank: int) -> KernelProfile:
        """Kernels of one local apply on ``rank`` (restrict + solve)."""
        prof = KernelProfile()
        n_i = self.dof_sets[rank].size
        prof.add(
            "apply.restrict_prolong",
            flops=float(n_i),
            bytes=32.0 * n_i,
            parallelism=float(n_i),
        )
        prof.extend(self.locals[rank].solve_profile)
        return prof

    def rank_setup_profile(self, rank: int, include_symbolic: bool = True) -> KernelProfile:
        """Kernels of one numeric setup on ``rank``.

        ``include_symbolic=False`` models a refactorization that reuses
        the symbolic phase (possible only when the local solver's
        structure is value-independent).
        """
        prof = KernelProfile()
        loc = self.locals[rank]
        # solvers with value-dependent structure (SuperLU) repeat the
        # pattern analysis and triangular-solver setup at every numeric
        # factorization; structure-stable solvers reuse both (phase (a))
        if include_symbolic or not loc.symbolic_reusable:
            prof.extend(loc.symbolic_profile)
            prof.extend(loc.setup_profile)
        prof.extend(loc.numeric_profile)
        # forming A_i = R_i A R_i^T: communication-bound gather
        nnz_i = self.matrices[rank].nnz
        prof.add(
            "comm.overlap_import",
            flops=0.0,
            bytes=float(nnz_i * 16 + self.halo_doubles[rank] * 8),
            parallelism=1.0,
        )
        return prof
