"""Gilbert--Peierls sparse LU with partial pivoting (the SuperLU model).

Left-looking, column-at-a-time factorization: for each column, a DFS on
the structure of the already-computed ``L`` columns finds the reach of
the column's pattern (the symbolic step), then a sparse lower-triangular
solve computes the column values, and partial pivoting picks the largest
remaining entry.  Time is proportional to the flops performed [Gilbert &
Peierls 1988]; SuperLU is the supernodal evolution of this algorithm.

Because the pivot order depends on *values*, the paper's SuperLU
rebuilds everything on a refactorization: the factor pattern, the
supernode blocking, and the level-set schedules, which is exactly why
its SuperLU-on-GPU setup times are dominated by the Kokkos-Kernels
SpTRSV setup (Fig. 4, Table III(a)).  The modeled clock keeps pricing
that re-symbolic refactorization (``symbolic_reusable`` is False).

The executed refactorization, :meth:`GilbertPeierlsLU.replay`, first
tries the recorded pivot sequence: with the row order fixed, the ``L``
and ``U`` patterns are fixed too, and a right-looking pass over them
(one outer-product update per pivot) produces the same factors as
:meth:`~GilbertPeierlsLU.numeric` bit for bit -- provided every
recorded pivot is still the row ``numeric`` would choose.  When one is
not (a changed maximum, a tie, a vanishing column), the replay reports
it and :meth:`~GilbertPeierlsLU.refactorize` re-runs the full
factorization.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.direct.base import DirectSolver
from repro.machine.kernels import KernelProfile
from repro.obs import get_tracer
from repro.ordering import canonical_ordering, ordering_permutation
from repro.reuse.fingerprint import check_same_pattern
from repro.reuse.symbolic import frozen_arrays, shared_symbolic
from repro.sparse.blocks import inverse_permutation, permute
from repro.sparse.csr import CsrMatrix
from repro.tri.factored import FactoredSolve

__all__ = ["GilbertPeierlsLU", "GpLuSymbolic"]

#: byte cap of :meth:`GilbertPeierlsLU.replay`'s dense ``n x n``
#: workspace; a larger block is refactored by the full factorization
REPLAY_WORKSPACE_BYTES = 64 << 20
#: threshold partial pivoting: the diagonal entry is kept as pivot when
#: ``|a_jj| >= PIVOT_TOL * max_i |a_ij|`` (1.0 = classic partial
#: pivoting, SuperLU's default)
PIVOT_TOL = 1.0


@dataclass(frozen=True)
class GpLuSymbolic:
    """The shared symbolic record of the pivoting LU: only the ordering."""

    perm: np.ndarray


def _transpose_plan(ptr: np.ndarray, pos: np.ndarray):
    """The column of every entry of a CSC pattern, and its CSR transpose.

    Returns ``(col, (order, indptr, indices))``: ``order`` is the value
    gather :meth:`CsrMatrix.transpose` applies (a stable sort by row),
    ``indptr`` / ``indices`` the transposed pattern.
    """
    n = ptr.size - 1
    col = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
    order = np.argsort(pos, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pos, minlength=n), out=indptr[1:])
    return col, (order, indptr, col[order])


class GilbertPeierlsLU(DirectSolver):
    """Sparse LU with partial pivoting, in the Gilbert--Peierls style.

    Parameters
    ----------
    ordering:
        Fill-reducing column ordering applied symmetrically before
        factorization: ``"nd"`` (default, the paper uses METIS ND) or
        ``"natural"``.  Pivots follow the threshold rule of
        :data:`PIVOT_TOL`.

    Notes
    -----
    ``symbolic_reusable`` is False: partial pivoting makes the factor
    structure value-dependent, so the modeled clock prices every
    refactorization as symbolic plus numeric.  The executed
    refactorization (:meth:`refactorize`, through :meth:`replay`)
    keeps the ordering, the pivot sequence and the factor patterns
    whenever the new values leave every pivot choice unchanged.
    """

    symbolic_reusable = False

    def __init__(self, ordering: str = "nd") -> None:
        super().__init__()
        self.ordering = ordering
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
            if marked[k] == k and pinv[k] < 0 and abs(x[k]) >= PIVOT_TOL * vmax:
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
    def refactorize(self, a: CsrMatrix) -> "GilbertPeierlsLU":
        """Refactor a same-pattern ``a`` in place: replay, else rebuild.

        Adopts :meth:`replay`'s factorization (bit-equal to a fresh
        one) when this solver holds a pivot sequence and the new values
        keep it; otherwise re-runs :meth:`factorize`.  The span this runs
        under is annotated ``pivots=replayed`` or ``pivots=rebuilt``.
        The ``factor/*`` spans and the profiles are a full
        factorization's either way: the modeled clock prices the paper's
        re-symbolic SuperLU.
        """
        replayed = self.replay(a) if self._numeric_done else None
        tr = get_tracer()
        tr.current.annotate(pivots="rebuilt" if replayed is None else "replayed")
        if replayed is None:
            return self.factorize(a)
        vars(self).update(vars(replayed))
        with tr.span("factor/symbolic") as sp:
            sp.annotate(solver=type(self).__name__)
            sp.add_profile(self.symbolic_profile)
        with tr.span("factor/numeric") as sp:
            sp.add_profile(self.numeric_profile)
        return self

    def replay(self, a: CsrMatrix) -> Optional["GilbertPeierlsLU"]:
        """Refactor a same-pattern ``a`` under this factorization's pivots.

        Returns a new solver whose ``L``, ``U``, ``row_perm``, ``flops``
        and ``stages`` equal those of a fresh ``factorize(a)`` bit for
        bit, or None when that cannot be guaranteed -- then the caller
        re-runs the full factorization.  This solver is left untouched.

        With the row order fixed the factor patterns are fixed, so the
        pass runs right-looking over pivot positions in a dense
        workspace ``W`` (rows by pivot position): step ``j`` subtracts
        ``l_j u_j`` from the trailing rows and columns, with ``l_j`` the
        pivot column over the pivot and ``u_j`` the pivot row.  Steps
        run in groups of consecutive pivots with nested patterns (the
        supernodes): a group gathers the rows and columns its steps
        touch into one dense block, runs its steps there and scatters
        the block back.  Every factor entry receives the same products
        in the same increasing-``j`` order as :meth:`numeric`'s
        left-looking loop.  The block also carries entries a step
        does not touch and pivot rows that are exactly zero (which
        :meth:`numeric` skips); they receive signed zeros, which leave
        every value unchanged as long as the factors are finite and no
        entry of ``a`` is ``-0.0`` (so no entry of ``W`` ever is).

        Afterwards each recorded pivot is checked against
        :meth:`numeric`'s two rules: a diagonal pivot must pass the
        threshold test; any other pivot must be the *unique* column
        maximum, with the diagonal below threshold.  None is returned
        on a tie, a column maximum at or below the singularity guard,
        a different winner, a non-finite factor entry, a ``-0.0`` in
        ``a``, or a block whose ``n x n`` workspace exceeds
        :data:`REPLAY_WORKSPACE_BYTES`.  Nothing is stored beyond the
        new factor values.

        Raises
        ------
        PatternChangedError
            ``a`` does not have the pattern this solver was built for.
        """
        self._require("solve")
        check_same_pattern(self._pattern_fp, a, "superlu")
        n = a.n_rows
        if 8 * n * n > REPLAY_WORKSPACE_BYTES or np.any(
            (a.data == 0.0) & np.signbit(a.data)
        ):
            return None
        l_ptr, l_pos, _ = self._l
        u_ptr, u_pos, _ = self._u
        l_col, l_t = _transpose_plan(l_ptr, l_pos)
        u_col, u_t = _transpose_plan(u_ptr, u_pos)
        ur_ptr, ur_col = u_t[1:]
        l_len = np.diff(l_ptr) - 1  # strict entries of L(:, j) / U(j, :)
        u_len = np.diff(ur_ptr) - 1
        # A entry (i, j) sits at ap[iperm[i], iperm[j]], and row r of ap
        # at pivot position pinv[r]
        iperm = inverse_permutation(self.perm)
        w = np.zeros((n, n))
        w[self.pinv[iperm[a.expanded_rows()]], iperm[a.indices]] = a.data

        # pivot j + 1 joins j's group when both of j's strict patterns
        # are j + 1 followed by the patterns of j + 1
        nxt = np.arange(1, n, dtype=np.int64)
        joins = (
            (l_len[:-1] == l_len[1:] + 1)
            & (u_len[:-1] == u_len[1:] + 1)
            & (l_pos[np.minimum(l_ptr[:-2] + 1, l_pos.size - 1)] == nxt)
            & (ur_col[np.minimum(ur_ptr[:-2] + 1, ur_col.size - 1)] == nxt)
        )
        heads = np.concatenate([[0], np.flatnonzero(~joins) + 1, [n]]).tolist()
        l_lens = l_len.tolist()
        with np.errstate(all="ignore"):
            for j0, j1 in zip(heads[:-1], heads[1:]):
                if j1 - j0 == 1:
                    rows = l_pos[l_ptr[j0] : l_ptr[j1]]
                    cols = ur_col[ur_ptr[j0] : ur_ptr[j1]]
                else:
                    rows = np.unique(l_pos[l_ptr[j0] : l_ptr[j1]])
                    cols = np.unique(ur_col[ur_ptr[j0] : ur_ptr[j1]])
                if rows.size == 1 or cols.size == 1:
                    continue  # no trailing update
                # rows and cols start with the group's pivots j0..j1-1
                ix = (rows[:, None], cols)
                g = w[ix]
                for q in range(j1 - j0):
                    if l_lens[j0 + q]:
                        l = g[q + 1 :, q] / g[q, q]
                        g[q + 1 :, q + 1 :] -= l[:, None] * g[q, q + 1 :]
                w[ix] = g

            # W now holds every final column: read the factors and check
            # every recorded pivot against numeric's rules
            pivots = np.diagonal(w).copy()
            l_data = w[l_pos, l_col] / pivots[l_col]
            l_data[l_ptr[:-1]] = 1.0
            u_data = w[u_pos, u_col]
            if not (np.isfinite(l_data).all() and np.isfinite(u_data).all()):
                return None
            cand = np.abs(w[l_pos, l_col])
            vmax = np.maximum.reduceat(cand, l_ptr[:-1])
            thresh = PIVOT_TOL * vmax
            # numeric keeps the diagonal (original row j, at position
            # pinv[j]) when it is in the column and above threshold
            diag_key = np.arange(n, dtype=np.int64) * n + self.pinv
            at = np.minimum(
                np.searchsorted(l_col * n + l_pos, diag_key), l_pos.size - 1
            )
            keep_diag = (l_col[at] * n + l_pos[at] == diag_key) & (cand[at] >= thresh)
            n_max = np.add.reduceat(cand == vmax[l_col], l_ptr[:-1])
            piv = np.abs(pivots)
            amax = float(np.abs(a.data).max()) if a.nnz else 0.0
            tiny = 100.0 * n * np.finfo(np.float64).eps * amax
            good = (vmax > tiny) & np.where(
                self.row_perm == np.arange(n),
                piv >= thresh,
                ~keep_diag & (piv == vmax) & (n_max == 1),
            )
            if not good.all():
                return None
        # numeric's count: 2 |L(:, j)| flops per nonzero strict U(j, k),
        # plus one divide per strict L entry
        strict_nz = (u_pos != u_col) & (u_data != 0.0)
        updates = int(np.bincount(u_pos[strict_nz], minlength=n) @ l_len)
        flops = 2.0 * updates + (l_pos.size - n)
        return self._with_values(a, flops, (l_data, *l_t), (u_data, *u_t))

    def pivot_record(self) -> "GilbertPeierlsLU":
        """A copy holding only what :meth:`replay` reads.

        The ordering, the pivot sequence, the factor patterns and the
        solve stages; the factor values and the CSR forms are dropped,
        so a refactorizable wrapper that keeps the record keeps
        ``O(nnz(L + U))`` integers and no second copy of the values.
        """
        rec = copy.copy(self)
        rec._l = self._l[:2] + (None,)
        rec._u = self._u[:2] + (None,)
        rec.l_csr = rec.u_csr = None
        return rec

    def _with_values(
        self, a: CsrMatrix, flops: float, l_new: tuple, u_new: tuple
    ) -> "GilbertPeierlsLU":
        """A copy of this solver over new factor values (same patterns).

        ``l_new`` / ``u_new`` are ``(CSC values, order, CSR indptr, CSR
        indices)``, the last three from :func:`_transpose_plan`.
        """
        l_data, l_order, *l_csr = l_new
        u_data, u_order, *u_csr = u_new
        new = copy.copy(self)
        n = self.pinv.size
        new._l = (self._l[0], self._l[1], l_data)
        new._u = (self._u[0], self._u[1], u_data)
        new.flops = flops
        new.numeric_profile = KernelProfile()
        nnz_lu = float(l_data.size + u_data.size)
        new.numeric_profile.add(
            "factor.superlu_getrf",
            flops=flops,
            bytes=nnz_lu * 16.0 + a.nnz * 12.0,
            parallelism=1.0,
        )
        new.l_csr = CsrMatrix(*l_csr, l_data[l_order], (n, n))
        new.u_csr = CsrMatrix(*u_csr, u_data[u_order], (n, n))
        new.stages = replace(
            self.stages,
            lower=(self.stages.lower[0].rebind(new.l_csr), "solve"),
            upper=(self.stages.upper[0].rebind(new.u_csr), "solve"),
        )
        return new

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
            l_indptr, l_indices, l_data, self.pinv.size, max_width=max_width
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
