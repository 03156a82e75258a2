"""Gilbert--Peierls sparse LU with partial pivoting (the SuperLU model).

Left-looking, column-at-a-time factorization: for each column, a DFS on
the structure of the already-computed ``L`` columns finds the reach of
the column's pattern (the symbolic step), then a sparse lower-triangular
solve computes the column values, and partial pivoting picks the largest
remaining entry.  Time is proportional to the flops performed [Gilbert &
Peierls 1988]; SuperLU is the supernodal evolution of this algorithm.

Because the pivot order depends on *values*, nothing structural survives
a refactorization: the factor pattern, the supernode blocking, and the
level-set schedules must all be rebuilt, which is exactly why the
paper's SuperLU-on-GPU setup times are dominated by the Kokkos-Kernels
SpTRSV setup (Fig. 4, Table III(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.direct.base import DirectSolver
from repro.machine.kernels import KernelProfile
from repro.ordering import canonical_ordering, ordering_permutation
from repro.reuse.fingerprint import check_same_pattern
from repro.reuse.symbolic import frozen_arrays, shared_symbolic
from repro.sparse.blocks import inverse_permutation, permute
from repro.sparse.csr import CsrMatrix
from repro.tri.factored import FactoredSolve

__all__ = ["GilbertPeierlsLU", "GpLuSymbolic"]


@dataclass(frozen=True)
class GpLuSymbolic:
    """The shared symbolic record of the pivoting LU: only the ordering."""

    perm: np.ndarray


class GilbertPeierlsLU(DirectSolver):
    """Sparse LU with partial pivoting, in the Gilbert--Peierls style.

    Parameters
    ----------
    ordering:
        Fill-reducing column ordering applied symmetrically before
        factorization: ``"nd"`` (default, the paper uses METIS ND),
        ``"rcm"``, or ``"natural"``.
    pivot_tol:
        Threshold partial pivoting: the diagonal entry is kept as pivot
        when ``|a_jj| >= pivot_tol * max_i |a_ij|`` (1.0 = classic
        partial pivoting; SuperLU's default diagonal preference uses a
        smaller value which preserves more structure).

    Notes
    -----
    ``symbolic_reusable`` is False: partial pivoting makes the factor
    structure value-dependent.
    """

    symbolic_reusable = False

    def __init__(self, ordering: str = "nd", pivot_tol: float = 1.0) -> None:
        super().__init__()
        if not (0.0 < pivot_tol <= 1.0):
            raise ValueError("pivot_tol must be in (0, 1]")
        self.ordering = ordering
        self.pivot_tol = float(pivot_tol)
        self.perm: Optional[np.ndarray] = None
        self.row_perm: Optional[np.ndarray] = None  # pivoted row order
        # CSC factors: L unit-lower (pivot row stored first with value 1),
        # U upper with the pivot (diagonal) stored last in each column.
        self._l: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._u: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self.flops: float = 0.0

    # ------------------------------------------------------------------
    def symbolic(self, a: CsrMatrix) -> "GilbertPeierlsLU":
        """Choose the fill-reducing ordering (all real work is numeric).

        With partial pivoting only the ordering can be precomputed; the
        factor structure emerges during the numeric phase.
        """
        if a.n_rows != a.n_cols:
            raise ValueError("square matrix required")
        ordering = canonical_ordering(self.ordering)
        self.symbolic_record, self._pattern_fp = shared_symbolic(
            ("superlu", ordering),
            a,
            lambda: GpLuSymbolic(*frozen_arrays(ordering_permutation(a, ordering))),
        )
        self.perm = self.symbolic_record.perm
        n = a.n_rows
        self.symbolic_profile = KernelProfile()
        # ordering cost: a small multiple of |graph| traversals
        self.symbolic_profile.add(
            "symbolic.ordering", flops=0.0, bytes=float(a.nnz * 12 + n * 16)
        )
        self._symbolic_done = True
        self._numeric_done = False
        return self

    # ------------------------------------------------------------------
    def numeric(self, a: CsrMatrix) -> "GilbertPeierlsLU":
        """Factor ``P (A permuted) = L U`` column by column.

        The reach of each column is traversed in increasing pivot
        position with a binary heap, which is a valid topological order
        because ``L``-column updates only flow from lower to higher
        positions.  Per reach column the numeric update is one
        vectorized scatter, keeping the Python overhead proportional to
        the factor's *structure*, not its flops.
        """
        import heapq

        self._require("numeric")
        # the ordering was computed for the symbolic-time pattern; a new
        # pattern silently degrades it (and invalidates any reuse-cache
        # assumption about this solver), so it is a hard error
        check_same_pattern(self._pattern_fp, a, "superlu")
        n = a.n_rows
        ap = permute(a, self.perm)
        acsc = ap.transpose()  # CSR of A^T = CSC of A
        aptr, aind, aval = acsc.indptr, acsc.indices, acsc.data

        # growing CSC factors
        l_ptr = [0]
        l_rows: List[np.ndarray] = []
        l_vals: List[np.ndarray] = []
        u_ptr = [0]
        u_rows: List[np.ndarray] = []
        u_vals: List[np.ndarray] = []

        pinv = np.full(n, -1, dtype=np.int64)  # original row -> pivot position
        x = np.zeros(n, dtype=np.float64)
        marked = np.full(n, -1, dtype=np.int64)
        flops = 0.0
        # near-singularity guard: with partial pivoting the pivot is the
        # column max, so a pivot vanishing relative to ||A||_max means
        # rank deficiency (e.g. an un-grounded Neumann matrix)
        amax = float(np.abs(a.data).max()) if a.nnz else 0.0
        tiny = 100.0 * n * np.finfo(np.float64).eps * amax

        # per-column L access by pivot position
        lcol_rows: List[np.ndarray] = []
        lcol_vals: List[np.ndarray] = []

        for k in range(n):
            # ---- seed the pattern with A(:, k) ----
            lo, hi = aptr[k], aptr[k + 1]
            seeds = aind[lo:hi]
            x[seeds] = aval[lo:hi]
            marked[seeds] = k
            seed_pos = pinv[seeds]
            heap = [
                (int(p), int(r)) for p, r in zip(seed_pos, seeds) if p >= 0
            ]
            heapq.heapify(heap)
            unpiv_list = seeds[seed_pos < 0].tolist()
            upos_list: List[int] = []
            unode_list: List[int] = []

            # ---- process the reach in increasing pivot position ----
            while heap:
                pos_j, node = heapq.heappop(heap)
                upos_list.append(pos_j)
                unode_list.append(node)
                rows_j = lcol_rows[pos_j]
                # structural extension: newly reached rows
                new = rows_j[marked[rows_j] != k]
                if new.size:
                    marked[new] = k
                    pn = pinv[new]
                    piv = pn >= 0
                    for p, r in zip(pn[piv].tolist(), new[piv].tolist()):
                        heapq.heappush(heap, (p, r))
                    unpiv_list.extend(new[~piv].tolist())
                xj = x[node]
                if xj != 0.0:
                    x[rows_j] -= lcol_vals[pos_j] * xj
                    flops += 2.0 * rows_j.size

            # ---- pivot selection among unpivoted pattern rows ----
            unpiv = np.asarray(unpiv_list, dtype=np.int64)
            if unpiv.size == 0:
                from repro.resilience.detect import PivotBreakdownError

                raise PivotBreakdownError(
                    f"superlu: structurally singular at column {k}",
                    index=int(k),
                    solver="superlu",
                )
            cand_vals = np.abs(x[unpiv])
            vmax = cand_vals.max()
            if vmax <= tiny:
                from repro.resilience.detect import PivotBreakdownError

                raise PivotBreakdownError(
                    f"superlu: numerically singular at column {k} "
                    f"(column max {vmax:.3e} <= {tiny:.3e})",
                    index=int(k),
                    value=float(vmax),
                    solver="superlu",
                )
            ipiv = int(unpiv[np.argmax(cand_vals)])
            # threshold rule: keep the diagonal (row k of the permuted
            # matrix) when it is large enough relative to the column max
            if marked[k] == k and pinv[k] < 0 and abs(x[k]) >= self.pivot_tol * vmax:
                ipiv = k
            pivot = x[ipiv]
            pinv[ipiv] = k

            # ---- store U column k: pivoted rows (positions < k), pivot last
            upos = np.asarray(upos_list, dtype=np.int64)  # already ascending
            unodes = np.asarray(unode_list, dtype=np.int64)
            u_rows.append(np.concatenate([upos, [k]]).astype(np.int64))
            u_vals.append(np.concatenate([x[unodes], [pivot]]))
            u_ptr.append(u_ptr[-1] + upos.size + 1)

            # ---- store L column k: unpivoted rows scaled by pivot, unit first
            lower = unpiv[unpiv != ipiv]
            lrows = np.concatenate([[ipiv], lower]).astype(np.int64)
            lvals = np.concatenate([[1.0], x[lower] / pivot])
            lcol_rows.append(lrows[1:])  # strict part, original row ids
            lcol_vals.append(lvals[1:])
            l_rows.append(lrows)
            l_vals.append(lvals)
            l_ptr.append(l_ptr[-1] + lrows.size)
            flops += float(lower.size)

            # clear the work array
            x[unpiv] = 0.0
            x[unodes] = 0.0

        # finalize: map L row ids to pivot positions
        self.row_perm = inverse_permutation(pinv)  # position -> original row
        l_indptr = np.asarray(l_ptr, dtype=np.int64)
        l_indices = pinv[np.concatenate(l_rows)] if l_rows else np.empty(0, np.int64)
        l_data = np.concatenate(l_vals) if l_vals else np.empty(0)
        # sort rows within each column (pivot position ordering)
        for j in range(n):
            lo, hi = l_indptr[j], l_indptr[j + 1]
            order = np.argsort(l_indices[lo:hi])
            l_indices[lo:hi] = l_indices[lo:hi][order]
            l_data[lo:hi] = l_data[lo:hi][order]
        self._l = (l_indptr, l_indices, l_data)
        u_indptr = np.asarray(u_ptr, dtype=np.int64)
        self._u = (
            u_indptr,
            np.concatenate(u_rows) if u_rows else np.empty(0, np.int64),
            np.concatenate(u_vals) if u_vals else np.empty(0),
        )
        self.pinv = pinv
        self.flops = flops

        self.numeric_profile = KernelProfile()
        # left-looking factorization is sequential on one CPU core
        nnz_lu = float(l_indices.size + self._u[1].size)
        self.numeric_profile.add(
            "factor.superlu_getrf",
            flops=flops,
            bytes=nnz_lu * 16.0 + a.nnz * 12.0,
            parallelism=1.0,
        )
        self._numeric_done = True
        self._build_solve()
        return self

    # ------------------------------------------------------------------
    def _build_solve(self) -> None:
        """Build CSR triangular forms for repeated solves.

        Mirrors the paper's CPU path (SuperLU's internal substitution
        solver); the GPU path wraps the factors in the supernodal
        Kokkos-Kernels solver via :meth:`supernodal_l`.
        """
        n = self.pinv.size
        l_indptr, l_indices, l_data = self._l
        u_indptr, u_rows_arr, u_vals_arr = self._u
        # CSC -> CSR via transpose of the CSC-as-CSR-of-transpose trick
        lT = CsrMatrix(l_indptr, l_indices, l_data, (n, n))  # rows = columns of L
        self.l_csr = lT.transpose()
        uT = CsrMatrix(u_indptr, u_rows_arr, u_vals_arr, (n, n))
        self.u_csr = uT.transpose()
        from repro.tri.levelset import LevelScheduledTriangular

        l_solver = LevelScheduledTriangular(self.l_csr, lower=True)
        u_solver = LevelScheduledTriangular(self.u_csr, lower=False)
        # rows were pivoted: position p holds original row row_perm[p];
        # the factored matrix is A[perm][:, perm] row-permuted by pinv
        self.stages = FactoredSolve(
            perm_in=self.perm[self.row_perm],
            lower=(l_solver, "solve"),
            upper=(u_solver, "solve"),
            perm_out=inverse_permutation(self.perm),
        )

        self.solve_profile = KernelProfile()
        self.solve_profile.extend(l_solver.kernel_profile())
        self.solve_profile.extend(u_solver.kernel_profile())

    # ------------------------------------------------------------------
    def supernodal_l(self, max_width: int = 64):
        """Wrap the L factor in the supernodal GPU solver (KK SpTRSV).

        Returns ``(solver, setup_profile)``; the setup profile prices the
        supernode detection and dense block assembly that must rerun
        after every numeric factorization.
        """
        from repro.tri.supernodal import SupernodalTriangular

        self._require("solve")
        l_indptr, l_indices, l_data = self._l
        snt = SupernodalTriangular.from_csc(
            l_indptr, l_indices, l_data, self.pinv.size, unit_diagonal=False,
            max_width=max_width,
        )
        setup = KernelProfile()
        nnz_l = float(l_indices.size)
        dense = float(sum(b.size for b in snt.blocks))
        setup.add(
            "setup.sptrsv_symbolic", flops=0.0, bytes=nnz_l * 48.0, parallelism=1.0
        )
        setup.add(
            "setup.sptrsv_numeric",
            flops=0.0,
            bytes=(nnz_l + dense) * 24.0 + dense * 16.0,
            parallelism=float(snt.n_supernodes),
        )
        return snt, setup
