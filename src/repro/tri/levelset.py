"""Level-set (wavefront) scheduled sparse triangular solve.

Rows are grouped into *levels*: row ``i``'s level is one more than the
maximum level of the rows it depends on.  All rows in one level are
independent and execute as one parallel kernel; the number of levels is
the critical path, i.e. the number of GPU kernel launches (Section
V-B.2 of the paper; [Anderson & Saad 1989]).

The solver computes exactly the substitution result -- the schedule only
changes the order of independent updates -- and its
:meth:`~LevelScheduledTriangular.kernel_profile` exposes one kernel per
level so the machine model can price launch-bound behaviour.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.backend import get_backend
from repro.machine.kernels import KernelProfile
from repro.sparse.csr import CsrMatrix

__all__ = ["level_schedule", "LevelScheduledTriangular"]


def _level_schedule_reference(t: CsrMatrix, lower: bool = True) -> np.ndarray:
    """The seed row-at-a-time schedule (executable spec + bench baseline).

    O(n) python-loop formulation; :func:`level_schedule` must match it
    bit for bit (the backend test suite and ``python -m repro.bench
    --backend`` both compare against this).
    """
    n = t.n_rows
    level = np.zeros(n, dtype=np.int64)
    indptr, indices = t.indptr, t.indices
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        cols = indices[indptr[i] : indptr[i + 1]]
        deps = cols[cols < i] if lower else cols[cols > i]
        if deps.size:
            level[i] = level[deps].max() + 1
    return level


def level_schedule(t: CsrMatrix, lower: bool = True) -> np.ndarray:
    """Compute the level of every row of a triangular matrix.

    ``level[i] = 1 + max(level[j])`` over the off-diagonal entries
    ``T(i, j)`` of row ``i`` (its dependencies); independent rows get
    level 0.

    Vectorized wavefront propagation: rows whose dependencies are all
    resolved form the next level, and resolving a level decrements the
    remaining-dependency counts of its dependents in one
    gather/bincount pass.  Python iterates only over *levels* (the
    critical path) instead of rows, so the schedule itself runs at the
    level-parallel granularity it describes.  Integer result, exactly
    equal to :func:`_level_schedule_reference`.
    """
    from repro.sparse.spgemm import _concat_ranges

    n = t.n_rows
    level = np.zeros(n, dtype=np.int64)
    if n == 0:
        return level
    rows = t.expanded_rows()
    indices = t.indices
    strict = indices < rows if lower else indices > rows
    src = indices[strict]  # dependency row of each strict entry
    dst = rows[strict]  # dependent row
    indegree = np.bincount(dst, minlength=n)
    # adjacency grouped by dependency: out-edges of row j
    order = np.argsort(src, kind="stable")
    dst_by_src = dst[order]
    out_counts = np.bincount(src, minlength=n)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_ptr[1:])
    frontier = np.flatnonzero(indegree == 0)
    lv = 0
    while frontier.size:
        level[frontier] = lv
        lv += 1
        edges = _concat_ranges(out_ptr[frontier], out_counts[frontier])
        if not edges.size:
            break
        targets = dst_by_src[edges]
        indegree -= np.bincount(targets, minlength=n)
        candidates = np.unique(targets)
        frontier = candidates[indegree[candidates] == 0]
    return level


def _level_plan_reference(
    level: np.ndarray, s_rows: np.ndarray, s_cols: np.ndarray, s_vals: np.ndarray
) -> Tuple[List[np.ndarray], ...]:
    """The seed per-level plan builder (executable spec of :func:`_level_plan`).

    One boolean mask over all strict entries per level, i.e.
    O(n_levels * nnz).  Returns the per-level ``(rowset, cols, vals,
    segptr)`` lists :func:`_level_plan` must reproduce exactly.
    """
    n_levels = int(level.max()) + 1 if level.size else 0
    rowsets, cols, vals, segptrs = [], [], [], []
    entry_level = level[s_rows]
    for lv in range(n_levels):
        rows_in = np.flatnonzero(level == lv).astype(np.int64)
        sel = entry_level == lv
        er, ec, ev = s_rows[sel], s_cols[sel], s_vals[sel]
        order = np.argsort(er, kind="stable")
        er, ec, ev = er[order], ec[order], ev[order]
        # segment pointer per row of the level (rows_in is sorted)
        counts = np.zeros(rows_in.size + 1, dtype=np.int64)
        pos = np.searchsorted(rows_in, er)
        np.add.at(counts, pos + 1, 1)
        np.cumsum(counts, out=counts)
        rowsets.append(rows_in)
        cols.append(ec)
        vals.append(ev)
        segptrs.append(counts)
    return rowsets, cols, vals, segptrs


def _level_plan(
    level: np.ndarray, s_rows: np.ndarray, s_cols: np.ndarray, s_vals: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """The level schedule's gather plan as four level-sorted flat arrays.

    ``level`` is the level of every row; ``s_rows`` / ``s_cols`` /
    ``s_vals`` are the strict entries, rows of one level in ascending
    order (CSR order, or the concatenation of already level-sorted
    blocks).  One stable sort by level keeps rows, and the entries
    inside a row, in their given order.  Returns ``(rows, ent_ptr, cols,
    vals)``: the rows sorted by ``(level, row)``, the entry range
    ``ent_ptr[i]:ent_ptr[i + 1]`` of sorted row ``i``, and the entries in
    that order.  :func:`_split_levels` cuts them into the per-level
    arrays of :func:`_level_plan_reference`.
    """
    rows = np.argsort(level, kind="stable").astype(np.int64)
    order = np.argsort(level[s_rows], kind="stable")
    ent_ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(s_rows, minlength=rows.size)[rows], out=ent_ptr[1:])
    return rows, ent_ptr, s_cols[order], s_vals[order]


def _split_levels(
    level: np.ndarray,
    rows: np.ndarray,
    ent_ptr: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> Tuple[List[np.ndarray], ...]:
    """Per-level ``(rowset, cols, vals, segptr)`` views of a level plan."""
    n_levels = int(level.max()) + 1 if level.size else 0
    row_cuts = np.cumsum(np.bincount(level, minlength=n_levels))
    ent_cuts = ent_ptr[row_cuts]
    segptrs = []
    lo = 0
    for hi in row_cuts:
        segptrs.append(ent_ptr[lo : hi + 1] - ent_ptr[lo])
        lo = hi
    return (
        np.split(rows, row_cuts[:-1]),
        np.split(cols, ent_cuts[:-1]),
        np.split(vals, ent_cuts[:-1]),
        segptrs,
    )


class LevelScheduledTriangular:
    """A triangular matrix preprocessed for level-set execution.

    Parameters
    ----------
    t:
        Square lower- or upper-triangular CSR matrix with sorted rows and
        an explicit diagonal (unless ``unit_diagonal``).
    lower:
        Orientation.
    unit_diagonal:
        When True the diagonal is implicitly one and need not be stored.

    Notes
    -----
    Construction separates strict and diagonal entries and builds, for
    each level, flat gather arrays so a level executes as two vectorized
    passes (gather-multiply, segmented reduce) -- the numpy analogue of a
    row-per-thread SpTRSV level kernel.
    """

    def __init__(
        self, t: CsrMatrix, lower: bool = True, unit_diagonal: bool = False
    ) -> None:
        if t.n_rows != t.n_cols:
            raise ValueError("triangular solve requires a square matrix")
        n = t.n_rows
        diag = np.ones(n, dtype=t.dtype)
        if not unit_diagonal:
            diag = t.diagonal()
            if np.any(diag == 0):
                raise ZeroDivisionError("zero on the diagonal")
        all_rows = t.expanded_rows()
        strict = t.indices < all_rows if lower else t.indices > all_rows
        self._bind(
            n,
            lower,
            unit_diagonal,
            level_schedule(t, lower=lower),
            diag,
            all_rows[strict],
            t.indices[strict],
            t.data[strict],
        )

    def _bind(
        self,
        n: int,
        lower: bool,
        unit_diagonal: bool,
        level: np.ndarray,
        diag: np.ndarray,
        s_rows: np.ndarray,
        s_cols: np.ndarray,
        s_vals: np.ndarray,
    ) -> None:
        self.shape = (n, n)
        self.lower = lower
        self.unit_diagonal = unit_diagonal
        self.dtype = diag.dtype
        self.levels = level
        self.n_levels = int(level.max()) + 1 if n else 0
        self._diag = diag
        self._sorted = _level_plan(level, s_rows, s_cols, s_vals)
        (
            self._level_rowset,
            self._level_cols,
            self._level_vals,
            self._level_segptr,
        ) = _split_levels(level, *self._sorted)
        # what solve() walks: a row has strict entries iff its level is
        # >= 1, so from level 1 on every segment of a level is non-empty
        # and the segment starts are simply segptr[:-1]
        self._plan = [
            (
                rows,
                cols,
                vals,
                segptr[:-1],
                None if unit_diagonal else diag[rows],
            )
            for rows, cols, vals, segptr in zip(
                self._level_rowset,
                self._level_cols,
                self._level_vals,
                self._level_segptr,
            )
        ]

    @classmethod
    def block_diag(
        cls, parts: Sequence["LevelScheduledTriangular"]
    ) -> "LevelScheduledTriangular":
        """``blkdiag(parts)`` with the level schedules the parts already hold.

        Level ``lv`` of the result is the concatenation of the parts'
        levels ``lv`` (indices offset), so it runs ``max(n_levels)``
        levels instead of their sum and each part's rows see exactly
        the arithmetic of the part's own :meth:`solve`.  Nothing is
        rescheduled.
        """
        keys = {p.merge_key for p in parts}
        if len(keys) != 1:
            raise ValueError(f"cannot merge level-set factors of kinds {sorted(keys)}")
        self = cls.__new__(cls)
        offsets = np.concatenate([[0], np.cumsum([p.shape[0] for p in parts])])
        s_rows, s_cols, s_vals = [], [], []
        for p, off in zip(parts, offsets):
            rows, ent_ptr, cols, vals = p._sorted
            s_rows.append(np.repeat(rows, np.diff(ent_ptr)) + off)
            s_cols.append(cols + off)
            s_vals.append(vals)
        self._bind(
            int(offsets[-1]),
            parts[0].lower,
            parts[0].unit_diagonal,
            np.concatenate([p.levels for p in parts]),
            np.concatenate([p._diag for p in parts]),
            np.concatenate(s_rows),
            np.concatenate(s_cols),
            np.concatenate(s_vals),
        )
        return self

    @property
    def merge_key(self) -> tuple:
        """What must agree for two factors to share a :meth:`block_diag`."""
        return ("levelset", self.lower, self.unit_diagonal, self.dtype.str)

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b``; exact (identical to substitution).

        ``b`` may be a vector or a 2-D array of right-hand-side columns
        (the coarse-basis extension solves use many columns at once);
        column ``j`` of the 2-D result equals the 1-D solve of column
        ``j`` bit for bit.  Routed through the array backend of ``b``:
        numpy arrays take the bit-identical numpy path; backend tensors
        are solved on their device and returned as the same type.
        """
        bk = get_backend(b)
        b = bk.asarray(b)
        x = bk.astype(bk.copy(b), bk.result_type(self.dtype, b))
        columns = x.ndim == 2
        for rows, cols, vals, starts, diag in self._plan:
            if cols.size:
                xc = bk.take(x, cols)
                vals = bk.asarray(vals)
                prods = xc * vals[:, None] if columns else vals * xc
                xr = bk.take(x, rows) - bk.segment_sum(prods, starts, axis=0)
            elif diag is None:
                continue
            else:
                xr = bk.take(x, rows)
            if diag is not None:
                diag = bk.asarray(diag)
                xr = xr / (diag[:, None] if columns else diag)
            bk.put(x, rows, xr)
        return x

    # ------------------------------------------------------------------
    def kernel_profile(self) -> KernelProfile:
        """One kernel per level: the launch-bound GPU cost shape.

        Per level: 2 flops per strict entry plus a divide per row; bytes
        cover the entry values/indices and the row vectors.
        """
        prof = KernelProfile()
        itemsize = self.dtype.itemsize
        for lv in range(self.n_levels):
            rows = self._level_rowset[lv]
            nnz = self._level_cols[lv].size
            flops = 2.0 * nnz + rows.size
            bytes_ = nnz * (itemsize + 8) + rows.size * 3 * itemsize
            prof.add("sptrsv.level", flops, bytes_, parallelism=float(rows.size))
        return prof
