"""Level-of-fill incomplete LU: ILU(k).

Symbolic phase: the classic level rule.  Entries of ``A`` start at level
0; a fill entry ``(i, j)`` created through pivot ``k`` gets level
``lev(i,k) + lev(k,j) + 1`` and is kept when its level is at most ``k``.
Numeric phase: IKJ Gaussian elimination restricted to the fixed pattern.

Both phases run row by row; the GPU execution model (level-set
scheduling over the row-dependency DAG, as in Kokkos-Kernels SpILU) is
exposed through kernel profiles.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.machine.kernels import KernelProfile
from repro.ordering import canonical_ordering, ordering_permutation
from repro.reuse.fingerprint import check_same_pattern
from repro.reuse.symbolic import frozen_arrays, shared_symbolic
from repro.sparse.blocks import permute
from repro.sparse.csr import CsrMatrix
from repro.sparse.spgemm import _concat_ranges

__all__ = ["iluk_symbolic", "IlukFactorization", "IlukSymbolic"]


def _check_square(a: CsrMatrix, level: int) -> None:
    if a.n_rows != a.n_cols:
        raise ValueError("square matrix required")
    if level < 0:
        raise ValueError("level must be non-negative")


def _iluk_symbolic_reference(
    a: CsrMatrix, level: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed row-at-a-time ILU(k) symbolic phase (executable spec +
    bench baseline); :func:`iluk_symbolic` must match it exactly.

    Per-row dictionaries map column -> fill level; the cost is
    proportional to the *update work* of the eventual numeric
    factorization, paid in Python-level dictionary operations.
    """
    _check_square(a, level)
    n = a.n_rows
    # per-row level maps of the *U part* (cols >= row), needed by later rows
    u_levels: List[dict] = []
    indptr = np.zeros(n + 1, dtype=np.int64)
    all_rows: List[np.ndarray] = []

    for i in range(n):
        cols, _ = a.row(i)
        lev = {int(c): 0 for c in cols}
        lev.setdefault(i, 0)  # ensure a structural pivot
        # process existing + fill entries with col < i in ascending order;
        # a heap-free approach: iterate over sorted snapshot, extending as
        # fill arrives (fill through pivot k only creates cols > k).
        work = sorted(c for c in lev if c < i)
        wi = 0
        while wi < len(work):
            k = work[wi]
            wi += 1
            lev_ik = lev[k]
            if lev_ik > level:
                continue
            for j, lev_kj in u_levels[k].items():
                if j <= k:
                    continue
                cand = lev_ik + lev_kj + 1
                if cand > level:
                    continue
                cur = lev.get(j)
                if cur is None:
                    lev[j] = cand
                    if j < i:
                        # insert keeping 'work' sorted (fill col > k, so
                        # it lands at/after the current cursor)
                        bisect.insort(work, j, lo=wi)
                elif cand < cur:
                    lev[j] = cand
        keep = np.array(sorted(c for c, l in lev.items() if l <= level), dtype=np.int64)
        all_rows.append(keep)
        indptr[i + 1] = indptr[i] + keep.size
        u_levels.append({int(c): lev[int(c)] for c in keep if c >= i})
    return indptr, np.concatenate(all_rows) if all_rows else np.empty(0, np.int64)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal keys."""
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(first)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` for int keys as one sort and one neighbour compare
    (numpy's hash-based path costs ten times more at these sizes)."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR ``indptr`` of entries whose (sorted) row indices are ``rows``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _split_triangles(keys: np.ndarray, n: int):
    """Sorted ``row * n + col`` keys -> the strict-lower entries as
    ``(rows, cols)`` and the strict-upper entries as a CSR ``(indptr,
    cols)`` -- the two operands a level contributes to later products."""
    rows, cols = np.divmod(keys, np.int64(n))
    lower, upper = cols < rows, cols > rows
    return (rows[lower], cols[lower]), (_row_pointer(rows[upper], n), cols[upper])


def iluk_symbolic(a: CsrMatrix, level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Compute the ILU(k) fill pattern of a square matrix.

    Returns ``(indptr, indices)`` of the combined L+U pattern with sorted
    rows.  The diagonal is always included (at level 0) so the numeric
    phase has pivots.

    Notes
    -----
    Level by level instead of row by row.  By the sum rule an entry has
    level ``l >= 1`` exactly when it is absent from the levels below and
    some pivot ``k`` joins a strict-lower entry ``(i, k)`` of level ``p``
    to a strict-upper entry ``(k, j)`` of level ``q`` with ``p + q =
    l - 1``.  Levels below ``l`` are final once round ``l - 1`` is over,
    so round ``l`` is one masked sparse product: expand
    ``L_p join U_q`` for every ``p + q = l - 1`` (each pair of entries is
    expanded in exactly one round), deduplicate, and keep what the
    pattern does not hold yet.  No level is ever lowered.  An empty
    level does not end the recursion -- level ``l + 1`` also arises from
    ``p + q = l`` with both below ``l`` -- so all ``level`` rounds run.
    Equal to :func:`_iluk_symbolic_reference` on every input.
    """
    _check_square(a, level)
    n = a.n_rows
    diag = np.arange(n, dtype=np.int64)
    stride = np.int64(n)
    keys = _sorted_unique(
        np.concatenate([a.expanded_rows() * stride + a.indices, diag * stride + diag])
    )
    lowers, uppers = [], []
    new = keys
    for _ in range(level):
        lo, up = _split_triangles(new, n)
        lowers.append(lo)
        uppers.append(up)
        products = []
        for (l_rows, l_mid), (u_ptr, u_cols) in zip(lowers, reversed(uppers)):
            seg_len = u_ptr[l_mid + 1] - u_ptr[l_mid]
            gather = _concat_ranges(u_ptr[l_mid], seg_len)
            products.append(np.repeat(l_rows, seg_len) * stride + u_cols[gather])
        cand = _sorted_unique(np.concatenate(products))
        # a product has a pivot, so cand is only non-empty when keys is
        pos = np.searchsorted(keys, cand)
        absent = keys[np.minimum(pos, keys.size - 1)] != cand
        new = cand[absent]
        keys = np.insert(keys, pos[absent], new)
    return _row_pointer(keys // stride, n), keys % stride


@dataclass(frozen=True)
class IlukSymbolic:
    """The shared, immutable symbolic record of ILU(k): the ordering and
    the fill pattern of the permuted matrix (see
    :func:`repro.reuse.symbolic.shared_symbolic`)."""

    perm: np.ndarray
    pptr: np.ndarray
    pind: np.ndarray


def _analyse(a: CsrMatrix, ordering: str, level: int) -> IlukSymbolic:
    perm = ordering_permutation(a, ordering)
    pptr, pind = iluk_symbolic(permute(a, perm), level)
    return IlukSymbolic(*frozen_arrays(perm, pptr, pind))


class IlukFactorization:
    """ILU(k) with the three-phase structure.

    Parameters
    ----------
    level:
        Fill level ``k`` (Table IV studies k = 0..3).
    ordering:
        Optional symmetric pre-ordering: ``"natural"`` (paper's "No") or
        ``"nd"`` (nested dissection); Table IV studies both.

    After :meth:`numeric`, the factors are available as ``l`` (unit
    lower, strict part only) and ``u`` (upper including the diagonal),
    both CSR.
    """

    def __init__(self, level: int = 0, ordering: str = "natural") -> None:
        self.level = int(level)
        self.ordering = ordering
        self.perm: Optional[np.ndarray] = None
        self.pattern: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: the shared immutable result of :meth:`symbolic`
        self.symbolic_record: Optional[IlukSymbolic] = None
        self.l: Optional[CsrMatrix] = None
        self.u: Optional[CsrMatrix] = None
        self.symbolic_profile = KernelProfile()
        self.numeric_profile = KernelProfile()
        self._symbolic_done = False

    # ------------------------------------------------------------------
    def symbolic(self, a: CsrMatrix) -> "IlukFactorization":
        """Ordering + fill-pattern computation (reusable across values)."""
        ordering = canonical_ordering(self.ordering)
        self.symbolic_record, self._pattern_fp = shared_symbolic(
            ("iluk", ordering, self.level),
            a,
            lambda: _analyse(a, ordering, self.level),
        )
        self.perm = self.symbolic_record.perm
        self.pattern = (self.symbolic_record.pptr, self.symbolic_record.pind)
        nnz = int(self.pattern[1].size)
        self.symbolic_profile = KernelProfile()
        self.symbolic_profile.add(
            "symbolic.iluk_pattern", flops=0.0, bytes=float(nnz * 24 + a.nnz * 12)
        )
        self._symbolic_done = True
        return self

    # ------------------------------------------------------------------
    def numeric(self, a: CsrMatrix) -> "IlukFactorization":
        """IKJ factorization on the fixed pattern.

        A matrix whose pattern differs from the symbolic stamp raises
        :class:`~repro.reuse.fingerprint.PatternChangedError`: the
        pattern scatter silently *drops* entries outside the stale fill
        pattern, which would corrupt the factors without any signal.
        """
        if not self._symbolic_done:
            raise RuntimeError("call symbolic() before numeric()")
        check_same_pattern(self._pattern_fp, a, "iluk")
        ap = permute(a, self.perm)
        n = ap.n_rows
        pptr, pind = self.pattern

        # values of A scattered onto the pattern
        vals = _scatter_to_pattern(ap, pptr, pind)

        # pivot health: exact-zero check by default; an active
        # resilience engine upgrades it to a relative near-zero test
        from repro.resilience.context import get_engine
        from repro.resilience.detect import check_pivot

        eng = get_engine()
        pivot_rtol = eng.pivot_rtol if eng is not None else 0.0
        diag_scale = float(np.max(np.abs(a.diagonal()))) if a.n_rows else 1.0

        # U rows stored per-row for the update loop
        u_cols: List[np.ndarray] = [None] * n  # type: ignore[list-item]
        u_vals: List[np.ndarray] = [None] * n  # type: ignore[list-item]
        w = np.zeros(n, dtype=np.float64)
        flops = 0.0
        out_vals = np.empty_like(vals)

        for i in range(n):
            lo, hi = pptr[i], pptr[i + 1]
            cols = pind[lo:hi]
            w[cols] = vals[lo:hi]
            lower = cols[cols < i]
            for k in lower.tolist():
                ucols_k = u_cols[k]
                uvals_k = u_vals[k]
                # pivot of row k is its first U entry (the diagonal)
                lik = w[k] / uvals_k[0]
                w[k] = lik
                if ucols_k.size > 1:
                    w[ucols_k[1:]] -= lik * uvals_k[1:]
                    flops += 2.0 * (ucols_k.size - 1)
            row_vals = w[cols]
            out_vals[lo:hi] = row_vals
            upper_sel = cols >= i
            u_cols[i] = cols[upper_sel]
            u_vals[i] = row_vals[upper_sel]
            if u_cols[i].size == 0 or u_cols[i][0] != i:
                from repro.resilience.detect import PivotBreakdownError

                raise PivotBreakdownError(
                    f"zero pivot in ILU at row {i} (diagonal missing "
                    f"from the pattern)",
                    index=i,
                    value=0.0,
                    solver="iluk",
                )
            check_pivot(
                float(u_vals[i][0]), diag_scale, i, "iluk", rtol=pivot_rtol
            )
            # clear the work array: pattern cols plus everything we touched
            w[cols] = 0.0
            for k in lower.tolist():
                w[u_cols[k]] = 0.0

        # split into L (strict, unit diagonal implicit) and U (with diag)
        rows_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(pptr))
        lower_mask = pind < rows_all
        upper_mask = ~lower_mask
        self.l = CsrMatrix.from_coo(
            rows_all[lower_mask], pind[lower_mask], out_vals[lower_mask], (n, n)
        )
        self.u = CsrMatrix.from_coo(
            rows_all[upper_mask], pind[upper_mask], out_vals[upper_mask], (n, n)
        )
        self._build_numeric_profile(flops)
        return self

    # ------------------------------------------------------------------
    def _build_numeric_profile(self, flops: float) -> None:
        """Level-set scheduled SpILU numeric cost (KK execution model).

        The row-dependency DAG of the factorization equals the L
        pattern's; flops are distributed over levels proportionally to
        each level's L entries (a good proxy without per-row counters).
        """
        from repro.tri.levelset import level_schedule

        self.numeric_profile = KernelProfile()
        lev = level_schedule(self.l, lower=True)
        n_levels = int(lev.max()) + 1 if lev.size else 0
        rows_all = np.repeat(
            np.arange(self.l.n_rows, dtype=np.int64), self.l.row_nnz()
        )
        nnz_total = max(self.l.nnz, 1)
        for lv in range(n_levels):
            rows_in = np.flatnonzero(lev == lv)
            nnz_lv = int(np.sum(lev[rows_all] == lv))
            share = nnz_lv / nnz_total
            lv_flops = flops * share
            # IKJ updates stream the pivot-row segments: traffic scales
            # with the update count (cache-discounted), not just nnz
            self.numeric_profile.add(
                "factor.spilu_level",
                flops=lv_flops,
                bytes=max(16.0 * (nnz_lv + rows_in.size * 3), 4.0 * lv_flops),
                parallelism=float(max(rows_in.size, 1)),
            )

    # ------------------------------------------------------------------
    def solve_profile_exact(self) -> KernelProfile:
        """Profile of one exact (level-set) L+U triangular solve pair."""
        from repro.tri.levelset import LevelScheduledTriangular

        prof = KernelProfile()
        prof.extend(
            LevelScheduledTriangular(self.l, lower=True, unit_diagonal=True).kernel_profile()
        )
        prof.extend(LevelScheduledTriangular(self.u, lower=False).kernel_profile())
        return prof


def _scatter_to_pattern_reference(
    a: CsrMatrix, pptr: np.ndarray, pind: np.ndarray
) -> np.ndarray:
    """The seed row-at-a-time scatter (executable spec + bench baseline);
    :func:`_scatter_to_pattern` must match it bit for bit."""
    n = a.n_rows
    vals = np.zeros(pind.size, dtype=np.float64)
    col_pos = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        lo, hi = pptr[i], pptr[i + 1]
        col_pos[pind[lo:hi]] = np.arange(lo, hi)
        acols, avals = a.row(i)
        dest = col_pos[acols]
        ok = dest >= 0
        vals[dest[ok]] = avals[ok]
        col_pos[pind[lo:hi]] = -1
    return vals


def _scatter_to_pattern(
    a: CsrMatrix, pptr: np.ndarray, pind: np.ndarray
) -> np.ndarray:
    """Values of ``a`` at the pattern positions (zero where absent).

    One keyed gather: both the pattern and ``a`` are row-major with
    sorted rows, so ``row * n + col`` keys are sorted and every entry of
    ``a`` finds its pattern slot with one ``searchsorted``; entries of
    ``a`` outside the pattern are dropped.
    """
    stride = np.int64(a.n_cols)
    vals = np.zeros(pind.size, dtype=np.float64)
    if pind.size == 0:
        return vals
    pat_rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), np.diff(pptr))
    pat_key = pat_rows * stride + pind
    a_key = a.expanded_rows() * stride + a.indices
    pos = np.minimum(np.searchsorted(pat_key, a_key), pat_key.size - 1)
    ok = pat_key[pos] == a_key
    vals[pos[ok]] = a.data[ok]
    return vals
