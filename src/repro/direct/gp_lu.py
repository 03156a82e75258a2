"""Gilbert--Peierls sparse LU with partial pivoting (the SuperLU model).

The paper's SuperLU is left-looking and column-at-a-time: for each
column a DFS on the structure of the already-computed ``L`` columns
finds the reach of the column's pattern (the symbolic step), a sparse
lower-triangular solve computes the column values, and partial
pivoting picks the largest remaining entry [Gilbert & Peierls 1988].
That loop is kept as :meth:`GilbertPeierlsLU._numeric_reference`, the
executable specification.

The executed cold factorization, :meth:`GilbertPeierlsLU.numeric`, is
one right-looking pass over a dense workspace: column ``k`` holds its
final values when step ``k`` starts, so the pivot is chosen there by
the reference's own rules, and every factor entry receives the same
products in the same order -- the factors, the pivot sequence and the
flop count equal the reference's bit for bit.  Where that cannot be
guaranteed (an exact tie, a singular column, a non-finite value, a
``-0.0`` input, a block too large for the workspace) the pass hands the
matrix to the reference.

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

#: byte cap of the dense ``n x n`` workspace of
#: :meth:`GilbertPeierlsLU.numeric` and :meth:`GilbertPeierlsLU.replay`;
#: a larger block is factored by the left-looking reference loop
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


def _block_index(rows: np.ndarray, cols: np.ndarray):
    """The index of the block ``rows x cols`` of a dense array.

    A run of consecutive indices becomes a slice, which gathers and
    scatters faster than a fancy index over the same block.
    """
    r = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] + 1 == rows.size else rows
    c = slice(cols[0], cols[-1] + 1) if cols[-1] - cols[0] + 1 == cols.size else cols
    return np.ix_(rows, cols) if r is rows and c is cols else (r, c)


def _has_negative_zero(a: CsrMatrix) -> bool:
    """Whether ``a`` stores a ``-0.0``, which a dense pass could turn
    into ``+0.0`` where the left-looking loop keeps it."""
    return bool(np.any((a.data == 0.0) & np.signbit(a.data)))


def _singularity_guard(a: CsrMatrix) -> float:
    """The pivot magnitude at or below which a column counts as singular.

    With partial pivoting the pivot is the column max, so a pivot
    vanishing relative to ``||A||_max`` means rank deficiency (e.g. an
    un-grounded Neumann matrix).
    """
    amax = float(np.abs(a.data).max()) if a.nnz else 0.0
    return 100.0 * a.n_rows * np.finfo(np.float64).eps * amax


def _factor_values(w, l_ptr, l_pos, l_col, u_pos, u_col):
    """The CSC values of ``L`` and ``U`` read from a dense workspace.

    ``w`` holds every final column, rows by pivot position; ``L`` is
    ``w`` over the pivot of its column, with the unit pivot entry stored
    first.  Returns ``(l_data, u_data)``, or None when an entry is not
    finite.
    """
    pivots = np.diagonal(w).copy()
    l_data = w[l_pos, l_col] / pivots[l_col]
    l_data[l_ptr[:-1]] = 1.0
    u_data = w[u_pos, u_col]
    if not (np.isfinite(l_data).all() and np.isfinite(u_data).all()):
        return None
    return l_data, u_data


def _getrf_flops(l_ptr, l_pos, u_pos, u_col, u_data) -> float:
    """The reference factorization's flop count, from the factors alone.

    2 |strict L(:, j)| flops per nonzero strict ``U(j, k)`` (a zero
    pivot-row entry skips its update), plus one divide per strict ``L``
    entry.
    """
    n = l_ptr.size - 1
    strict_nz = (u_pos != u_col) & (u_data != 0.0)
    updates = int(np.bincount(u_pos[strict_nz], minlength=n) @ (np.diff(l_ptr) - 1))
    return 2.0 * updates + (l_pos.size - n)


def _getrf_profile(a: CsrMatrix, flops: float, nnz_lu: int) -> KernelProfile:
    """The modeled cost of one factorization: sequential on one CPU core."""
    profile = KernelProfile()
    profile.add(
        "factor.superlu_getrf",
        flops=flops,
        bytes=float(nnz_lu) * 16.0 + a.nnz * 12.0,
        parallelism=1.0,
    )
    return profile


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
        """Factor ``P (A permuted) = L U`` in one right-looking pass.

        Runs over a dense ``n x n`` workspace ``W`` (rows of the
        permuted matrix by column) and an ``n x n`` boolean structure
        ``S``.  When step ``k`` starts, column ``k`` holds its final
        values -- every earlier pivot has updated it -- so the pivot is
        chosen there by :meth:`_numeric_reference`'s two rules: the
        diagonal when it passes the :data:`PIVOT_TOL` threshold, else
        the column maximum.  Step ``k`` then subtracts ``l_k u_k`` from
        one block -- the unpivoted rows of its ``L`` column times the
        structural columns of the pivot row -- and ORs that block into
        ``S``.  ``S`` grows exactly as the left-looking reach does, and
        every factor entry receives the same products in the same
        increasing-pivot order, so ``L``, ``U``, ``row_perm`` and
        ``flops`` equal the reference's bit for bit.
        The block also carries products with pivot-row entries that are
        exactly zero (which the reference skips); they are signed zeros
        and change nothing while every value is finite and no entry of
        ``a`` is ``-0.0``.

        The pass hands the matrix to :meth:`_numeric_reference` when it
        cannot guarantee that: an empty candidate set, a column maximum
        at or below the singularity guard or NaN, an exact tie for the
        maximum that the diagonal does not win (the reference breaks it
        by discovery order), a non-finite factor entry, a ``-0.0`` in
        ``a``, or an ``n x n`` workspace over
        :data:`REPLAY_WORKSPACE_BYTES`.  The reference then raises the
        same :class:`~repro.resilience.detect.PivotBreakdownError` or
        returns the same factors.  The workspaces live only for the
        call.
        """
        self._require("numeric")
        check_same_pattern(self._pattern_fp, a, "superlu")
        n = a.n_rows
        if 8 * n * n > REPLAY_WORKSPACE_BYTES or _has_negative_zero(a):
            return self._numeric_reference(a)
        ap = permute(a, self.perm)
        # column-major: the pass reads one column per step
        w = np.zeros((n, n), order="F")
        s = np.zeros((n, n), dtype=bool, order="F")
        ap_rows = ap.expanded_rows()
        w[ap_rows, ap.indices] = ap.data
        s[ap_rows, ap.indices] = True
        tiny = _singularity_guard(a)
        pinv = np.full(n, -1, dtype=np.int64)
        free = np.ones(n, dtype=bool)  # rows not yet pivoted
        with np.errstate(all="ignore"):
            for k in range(n):
                cand = np.flatnonzero(s[:, k] & free)
                if not cand.size:
                    return self._numeric_reference(a)
                mag = np.abs(w[cand, k])
                vmax = mag.max()
                if not vmax > tiny:  # also a NaN
                    return self._numeric_reference(a)
                if free[k] and s[k, k] and abs(w[k, k]) >= PIVOT_TOL * vmax:
                    ipiv = k
                else:
                    (at, *ties) = np.flatnonzero(mag == vmax)
                    if ties:
                        return self._numeric_reference(a)
                    ipiv = int(cand[at])
                pinv[ipiv] = k
                free[ipiv] = False
                lower = cand[cand != ipiv]
                upper = np.flatnonzero(s[ipiv, k + 1 :]) + (k + 1)
                if lower.size and upper.size:
                    ix = _block_index(lower, upper)
                    w[ix] -= (w[lower, k] / w[ipiv, k])[:, None] * w[ipiv, upper]
                    s[ix] = True

            # S by pivot position holds both factor patterns: column k
            # of L is its rows at positions >= k (pivot first), of U its
            # rows at positions <= k (pivot last), both ascending
            row_perm = inverse_permutation(pinv)
            col, pos = np.nonzero(s[row_perm].T)
            in_l, in_u = pos >= col, pos <= col
            l_col, l_pos = col[in_l], pos[in_l]
            u_col, u_pos = col[in_u], pos[in_u]
            l_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(l_col, minlength=n), out=l_ptr[1:])
            u_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(u_col, minlength=n), out=u_ptr[1:])
            values = _factor_values(w[row_perm], l_ptr, l_pos, l_col, u_pos, u_col)
        if values is None:
            return self._numeric_reference(a)
        l_data, u_data = values
        self._store(
            a, pinv, (l_ptr, l_pos, l_data), (u_ptr, u_pos, u_data),
            _getrf_flops(l_ptr, l_pos, u_pos, u_col, u_data),
        )
        return self

    def _numeric_reference(self, a: CsrMatrix) -> "GilbertPeierlsLU":
        """The left-looking, column-at-a-time factorization :meth:`numeric`
        replaced; kept as its executable specification and fallback.

        For each column a depth-first reach over the computed ``L``
        columns finds the column's pattern, traversed in increasing
        pivot position with a binary heap (a valid topological order:
        ``L``-column updates only flow from lower to higher positions);
        a sparse triangular solve computes its values, and the pivot is
        picked among the unpivoted rows.  Raises
        :class:`~repro.resilience.detect.PivotBreakdownError` on a
        structurally or numerically singular column.
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
        tiny = _singularity_guard(a)

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
        l_indptr = np.asarray(l_ptr, dtype=np.int64)
        l_indices = pinv[np.concatenate(l_rows)] if l_rows else np.empty(0, np.int64)
        l_data = np.concatenate(l_vals) if l_vals else np.empty(0)
        # sort rows within each column (pivot position ordering)
        for j in range(n):
            lo, hi = l_indptr[j], l_indptr[j + 1]
            order = np.argsort(l_indices[lo:hi])
            l_indices[lo:hi] = l_indices[lo:hi][order]
            l_data[lo:hi] = l_data[lo:hi][order]
        u_indptr = np.asarray(u_ptr, dtype=np.int64)
        self._store(
            a,
            pinv,
            (l_indptr, l_indices, l_data),
            (
                u_indptr,
                np.concatenate(u_rows) if u_rows else np.empty(0, np.int64),
                np.concatenate(u_vals) if u_vals else np.empty(0),
            ),
            flops,
        )
        return self

    def _store(
        self, a: CsrMatrix, pinv: np.ndarray, l: tuple, u: tuple, flops: float
    ) -> None:
        """Adopt a factorization: pivots, sorted CSC factors, profile, solve."""
        self.pinv = pinv
        self.row_perm = inverse_permutation(pinv)  # position -> original row
        self._l = l
        self._u = u
        self.flops = flops
        self.numeric_profile = _getrf_profile(a, flops, l[1].size + u[1].size)
        self._numeric_done = True
        self._build_solve()

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
        if 8 * n * n > REPLAY_WORKSPACE_BYTES or _has_negative_zero(a):
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
            values = _factor_values(w, l_ptr, l_pos, l_col, u_pos, u_col)
            if values is None:
                return None
            l_data, u_data = values
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
            piv = np.abs(np.diagonal(w))
            good = (vmax > _singularity_guard(a)) & np.where(
                self.row_perm == np.arange(n),
                piv >= thresh,
                ~keep_diag & (piv == vmax) & (n_max == 1),
            )
            if not good.all():
                return None
        flops = _getrf_flops(l_ptr, l_pos, u_pos, u_col, u_data)
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
        new.numeric_profile = _getrf_profile(a, flops, l_data.size + u_data.size)
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
        (l_ptr, l_pos, l_data), (u_ptr, u_pos, u_data) = self._l, self._u
        _, (l_order, *l_csr) = _transpose_plan(l_ptr, l_pos)
        _, (u_order, *u_csr) = _transpose_plan(u_ptr, u_pos)
        self.l_csr = CsrMatrix(*l_csr, l_data[l_order], (n, n))
        self.u_csr = CsrMatrix(*u_csr, u_data[u_order], (n, n))
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
