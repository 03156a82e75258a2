"""Supernode-blocked level-set sparse triangular solve.

Direct factors of FEM matrices contain *supernodes*: groups of adjacent
columns with identical below-diagonal structure that can be stored as
dense blocks.  Executing the level-set schedule over supernodes instead
of individual rows (i) shortens the level tree, i.e. the number of GPU
kernel launches, and (ii) turns the per-node work into dense
triangular-solve + GEMV calls that map onto hierarchical (team) GPU
parallelism.  This reproduces the Kokkos-Kernels solver of
[Yamazaki, Rajamanickam, Ellingwood 2020] used throughout the paper's
SuperLU GPU runs.

Execution is batched the way the device kernel is: the supernodes of a
level that share a width and a below-row count form one *class*, the
diagonal blocks are inverted once at numeric time (as Kokkos-Kernels
does), and a class runs as two stacked matrix products plus one
accumulating scatter.  The dense kernels delegate to BLAS/LAPACK via the
array backend -- exactly as the modelled solvers delegate to cuBLAS.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import get_backend
from repro.machine.kernels import KernelProfile

__all__ = ["detect_supernodes", "SupernodeSchedule", "SupernodalTriangular"]


def _detect_supernodes_reference(
    l_indptr: np.ndarray,
    l_indices: np.ndarray,
    max_width: int = 64,
) -> np.ndarray:
    """The seed column-at-a-time detector (executable spec + bench baseline).

    O(n) python-loop formulation; :func:`detect_supernodes` must match
    it bit for bit.
    """
    n = l_indptr.size - 1
    boundaries = [0]
    width = 1
    for j in range(1, n):
        prev = l_indices[l_indptr[j - 1] : l_indptr[j]]
        cur = l_indices[l_indptr[j] : l_indptr[j + 1]]
        chain = (
            prev.size == cur.size + 1
            and prev[0] == j - 1
            and np.array_equal(prev[1:], cur)
            and width < max_width
        )
        if chain:
            width += 1
        else:
            boundaries.append(j)
            width = 1
    boundaries.append(n)
    return np.asarray(boundaries, dtype=np.int64)


def detect_supernodes(
    l_indptr: np.ndarray,
    l_indices: np.ndarray,
    max_width: int = 64,
) -> np.ndarray:
    """Find fundamental supernodes of a lower-triangular CSC pattern.

    Column ``j+1`` joins ``j``'s supernode when
    ``struct(L(:, j+1)) == struct(L(:, j)) \\ {j}`` (identical structure
    after dropping the pivot row).  Returns ``sn_ptr`` with supernode
    ``s`` spanning columns ``[sn_ptr[s], sn_ptr[s+1])``.

    Vectorized: the per-column chain predicate becomes three mask
    comparisons plus one flat segment-equality pass (gather both column
    patterns with the spgemm cumsum trick, count mismatches per
    candidate with a bincount); the ``max_width`` split falls out of
    each column's position inside its structural run.  Exactly equal to
    :func:`_detect_supernodes_reference`.

    Parameters
    ----------
    l_indptr, l_indices:
        CSC pattern of ``L`` with sorted row indices including the
        diagonal.
    max_width:
        Split supernodes wider than this (bounds frontal memory, and on
        the GPU bounds the team size).
    """
    from repro.sparse.spgemm import _concat_ranges

    n = l_indptr.size - 1
    if n <= 0:
        return np.asarray([0, n] if n == 0 else [0], dtype=np.int64)
    indptr = np.asarray(l_indptr, dtype=np.int64)
    counts = np.diff(indptr)
    # chain[j] (j >= 1): column j structurally continues column j-1
    chain = np.zeros(n, dtype=bool)
    js = np.arange(1, n)
    cand = (counts[js - 1] == counts[js] + 1) & (
        l_indices[indptr[js - 1]] == js - 1
    )
    cj = js[cand]
    if cj.size:
        seg_len = counts[cj]
        a_idx = _concat_ranges(indptr[cj - 1] + 1, seg_len)
        b_idx = _concat_ranges(indptr[cj], seg_len)
        seg_id = np.repeat(np.arange(cj.size, dtype=np.int64), seg_len)
        mism = np.bincount(
            seg_id,
            weights=(l_indices[a_idx] != l_indices[b_idx]),
            minlength=cj.size,
        )
        chain[cj] = mism == 0
    # structural runs; a run of length R splits every max_width columns
    is_start = ~chain
    is_start[0] = True
    starts = np.flatnonzero(is_start)
    run_id = np.cumsum(is_start) - 1
    pos_in_run = np.arange(n, dtype=np.int64) - starts[run_id]
    boundary = is_start | (pos_in_run % max_width == 0)
    return np.append(np.flatnonzero(boundary), n).astype(np.int64)


class SupernodeSchedule:
    """Pattern-only execution plan of a supernodal triangular solve.

    Supernodes are levelled over the forward-solve DAG and, inside each
    level, grouped into *classes* of equal width ``w`` and equal
    below-row count ``m``: every class executes as one batched dense
    kernel.  Nothing here depends on the factor's values, so a solver
    with a value-independent structure (Tacho) builds the schedule once
    in its symbolic phase and hands it to every numeric refactorization.

    Parameters
    ----------
    n:
        Matrix dimension.
    sn_ptr:
        ``(n_supernodes + 1,)`` column partition.
    rows_below:
        Per supernode, the sorted row indices strictly below the
        diagonal block.
    levels:
        Precomputed level of each supernode in the forward-solve DAG
        (a multifrontal symbolic phase holds it as the assembly-tree
        height); computed here when omitted.

    Attributes
    ----------
    classes:
        ``(level, sns, cols, rows)`` per class in ``(level, w, m)``
        order: the member supernodes, their ``(g, w)`` column indices
        and their ``(g, m)`` below-row indices.
    """

    def __init__(
        self,
        n: int,
        sn_ptr: np.ndarray,
        rows_below: Sequence[np.ndarray],
        levels: Optional[np.ndarray] = None,
    ) -> None:
        self.n = int(n)
        self.sn_ptr = np.asarray(sn_ptr, dtype=np.int64)
        self.n_supernodes = self.sn_ptr.size - 1
        if len(rows_below) != self.n_supernodes:
            raise ValueError("one below-row set per supernode required")
        self.levels = (
            self._schedule(rows_below)
            if levels is None
            else np.asarray(levels, dtype=np.int64)
        )
        self.n_levels = int(self.levels.max()) + 1 if self.n_supernodes else 0
        widths = np.diff(self.sn_ptr)
        below = np.fromiter(
            (len(r) for r in rows_below), dtype=np.int64, count=self.n_supernodes
        )
        order = np.lexsort((below, widths, self.levels))
        key = np.stack([self.levels[order], widths[order], below[order]])
        cuts = np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1
        self.classes: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for sns in np.split(order, cuts) if order.size else []:
            w, m = int(widths[sns[0]]), int(below[sns[0]])
            cols = self.sn_ptr[sns][:, None] + np.arange(w, dtype=np.int64)
            rows = np.empty((sns.size, m), dtype=np.int64)
            for i, s in enumerate(sns):
                rows[i] = rows_below[s]
            self.classes.append((int(self.levels[sns[0]]), sns, cols, rows))
        self._view_rows_below()

    def _view_rows_below(self) -> None:
        """``rows_below[s]`` as views of the classes' ``rows`` arrays."""
        self.rows_below: List[np.ndarray] = [None] * self.n_supernodes
        for _, sns, _, rows in self.classes:
            for i, s in enumerate(sns):
                self.rows_below[s] = rows[i]

    def _schedule(self, rows_below: Sequence[np.ndarray]) -> np.ndarray:
        """Level of each supernode in the forward-solve DAG."""
        col2sn = np.repeat(
            np.arange(self.n_supernodes, dtype=np.int64), np.diff(self.sn_ptr)
        )
        level = np.zeros(self.n_supernodes, dtype=np.int64)
        for t, rb in enumerate(rows_below):
            if len(rb) == 0:
                continue
            targets = np.unique(col2sn[rb])
            level[targets] = np.maximum(level[targets], level[t] + 1)
        return level

    @classmethod
    def block_diag(cls, parts: Sequence["SupernodeSchedule"]) -> "SupernodeSchedule":
        """The schedule of ``blkdiag(parts)``, concatenated not rescheduled.

        Same-``(level, w, m)`` classes of all parts fuse into one class
        (members in part order), so the merged solve runs
        ``max(n_levels)`` levels instead of their sum.
        """
        self = cls.__new__(cls)
        sizes = np.array([p.n for p in parts], dtype=np.int64)
        row_off = np.concatenate([[0], np.cumsum(sizes)])
        sn_off = np.concatenate(
            [[0], np.cumsum([p.n_supernodes for p in parts], dtype=np.int64)]
        )
        self.n = int(row_off[-1])
        self.sn_ptr = np.concatenate(
            [[0]] + [p.sn_ptr[1:] + off for p, off in zip(parts, row_off)]
        ).astype(np.int64)
        self.n_supernodes = int(sn_off[-1])
        self.levels = (
            np.concatenate([p.levels for p in parts])
            if parts
            else np.zeros(0, dtype=np.int64)
        )
        self.n_levels = max((p.n_levels for p in parts), default=0)
        fused: Dict[Tuple[int, int, int], list] = {}
        for i, p in enumerate(parts):
            for c, (level, _, cols, rows) in enumerate(p.classes):
                fused.setdefault((level, cols.shape[1], rows.shape[1]), []).append((i, c))
        keys = sorted(fused)
        #: per merged class, its ``(part, class)`` members in part order
        self.members = [fused[key] for key in keys]
        self.classes = []
        for key, members in zip(keys, self.members):

            def joined(field: int, offsets: np.ndarray) -> np.ndarray:
                return np.concatenate(
                    [parts[i].classes[c][field] + offsets[i] for i, c in members]
                )

            self.classes.append(
                (key[0], joined(1, sn_off), joined(2, row_off), joined(3, row_off))
            )
        self._view_rows_below()
        return self


class SupernodalTriangular:
    """A lower-triangular factor stored as dense supernode blocks.

    Parameters
    ----------
    n:
        Matrix dimension.
    sn_ptr:
        ``(n_supernodes + 1,)`` column partition.
    rows_below:
        Per supernode, the sorted global row indices strictly below the
        diagonal block.
    blocks:
        Per supernode ``s`` of width ``w`` with ``m`` below-rows, a dense
        ``(w + m, w)`` array whose top ``w x w`` part is the
        lower-triangular diagonal block and whose bottom part is the
        sub-diagonal panel.
    unit_diagonal:
        True when the diagonal block has implicit unit diagonal (LU's L
        factor).
    schedule:
        The pattern-only :class:`SupernodeSchedule` of this structure
        when the caller already holds it (``sn_ptr`` / ``rows_below``
        are then taken from it); built here otherwise.

    The same object solves both ``L x = b`` (:meth:`solve_forward`) and
    ``L^T x = b`` (:meth:`solve_backward`), which is all a Cholesky or
    LDL^T factorization needs.

    Notes
    -----
    The blocks of one ``(level, w, m)`` class are stacked into one
    ``(g, w + m, w)`` array (``blocks[s]`` are views into the stacks) and
    the diagonal blocks are inverted once at construction, as the
    Kokkos-Kernels supernodal SpTRSV does: a class then executes as two
    batched matrix products and one accumulating scatter.  A batch
    entry's arithmetic does not depend on what else is in the batch, so
    :meth:`block_diag` of several factors, and a multi-column solve,
    reproduce the separate solves bit for bit.
    """

    def __init__(
        self,
        n: int,
        sn_ptr: np.ndarray,
        rows_below: Sequence[np.ndarray],
        blocks: Sequence[np.ndarray],
        unit_diagonal: bool = False,
        schedule: Optional[SupernodeSchedule] = None,
    ) -> None:
        if schedule is None:
            schedule = SupernodeSchedule(n, sn_ptr, rows_below)
        if len(blocks) != schedule.n_supernodes:
            raise ValueError("one dense block per supernode required")
        stacks = []
        for _, sns, cols, rows in schedule.classes:
            shape = (cols.shape[1] + rows.shape[1], cols.shape[1])
            for s in sns:
                if np.shape(blocks[s]) != shape:
                    raise ValueError(f"block {s} has wrong shape")
            stacks.append(np.stack([blocks[s] for s in sns]))
        self._bind(schedule, stacks, unit_diagonal)
        self._dinv = _invert_diagonal_blocks(stacks, unit_diagonal)

    def _bind(
        self,
        schedule: SupernodeSchedule,
        stacks: List[np.ndarray],
        unit_diagonal: bool,
    ) -> None:
        self.schedule = schedule
        self.n = schedule.n
        self.sn_ptr = schedule.sn_ptr
        self.rows_below = schedule.rows_below
        self.n_supernodes = schedule.n_supernodes
        self.n_levels = schedule.n_levels
        self.unit_diagonal = unit_diagonal
        self._stacks = stacks
        self.blocks: List[np.ndarray] = [None] * self.n_supernodes
        for c in range(len(stacks)):
            self._view_blocks(c)

    def _view_blocks(self, c: int) -> None:
        """Point ``blocks[s]`` of class ``c`` into its stack."""
        stack = self._stacks[c]
        for i, s in enumerate(self.schedule.classes[c][1]):
            self.blocks[s] = stack[i]

    @classmethod
    def block_diag(
        cls, parts: Sequence["SupernodalTriangular"]
    ) -> "SupernodalTriangular":
        """``blkdiag(parts)`` as one factor: plans and values concatenated.

        Every part keeps the diagonal-block inverses it computed, so the
        merged solve restricted to one part's rows equals that part's
        own solve bit for bit.  The merged stacks then *become* the
        storage: each part's stacks (and ``blocks``) are re-pointed at
        their slices of the merged arrays, so merging stores the values
        once, not twice.
        """
        keys = {p.merge_key for p in parts}
        if len(keys) > 1:
            raise ValueError(f"cannot merge supernodal factors of kinds {sorted(keys)}")
        self = cls.__new__(cls)
        schedule = SupernodeSchedule.block_diag([p.schedule for p in parts])
        self._bind(
            schedule,
            [
                np.concatenate([parts[i]._stacks[c] for i, c in members])
                for members in schedule.members
            ],
            parts[0].unit_diagonal if parts else False,
        )
        self._dinv = [
            np.concatenate([parts[i]._dinv[c] for i, c in members])
            for members in schedule.members
        ]
        for members, stack, dinv in zip(schedule.members, self._stacks, self._dinv):
            lo = 0
            for i, c in members:
                hi = lo + parts[i]._stacks[c].shape[0]
                parts[i]._stacks[c] = stack[lo:hi]
                parts[i]._dinv[c] = dinv[lo:hi]
                parts[i]._view_blocks(c)
                lo = hi
        return self

    @property
    def merge_key(self) -> tuple:
        """What must agree for two factors to share a :meth:`block_diag`."""
        return ("supernodal", self.unit_diagonal, self.dtype.str)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the dense blocks."""
        return self._stacks[0].dtype if self._stacks else np.dtype(np.float64)

    # ------------------------------------------------------------------
    def solve_forward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L x = b`` (1-D, or 2-D with one system per column).

        Routed through the array backend of ``b``.  Per class: gather
        the column slices, multiply by the inverted diagonal blocks,
        multiply by the panels, and scatter-*accumulate* the updates --
        same-level sibling supernodes may update the same parent row.
        """
        bk = get_backend(b)
        xt = self._rows_of(bk, b)
        for (_, _, cols, rows), stack, dinv in zip(
            self.schedule.classes, self._stacks, self._dinv
        ):
            w = cols.shape[1]
            xs = bk.batched_matmul(
                bk.asarray(dinv), bk.take(xt, cols, axis=1)[..., None]
            )
            bk.put(xt, cols, xs[..., 0], axis=1)
            if rows.size:
                upd = -bk.batched_matmul(bk.asarray(stack)[:, w:], xs)
                flat = rows.reshape(-1)
                for j in range(xt.shape[0]):
                    bk.scatter_add_into(xt[j], flat, upd[j].reshape(-1))
        return self._columns_of(bk, xt, b)

    def solve_backward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L^T x = b`` (1-D or 2-D ``b``); backend-routed."""
        bk = get_backend(b)
        xt = self._rows_of(bk, b)
        for (_, _, cols, rows), stack, dinv in zip(
            reversed(self.schedule.classes),
            reversed(self._stacks),
            reversed(self._dinv),
        ):
            w = cols.shape[1]
            rhs = bk.take(xt, cols, axis=1)[..., None]
            if rows.size:
                panel_t = bk.asarray(stack)[:, w:].swapaxes(1, 2)
                rhs = rhs - bk.batched_matmul(
                    panel_t, bk.take(xt, rows, axis=1)[..., None]
                )
            xs = bk.batched_matmul(bk.asarray(dinv).swapaxes(1, 2), rhs)
            bk.put(xt, cols, xs[..., 0], axis=1)
        return self._columns_of(bk, xt, b)

    def _rows_of(self, bk, b):
        """A fresh ``(k, n)`` working copy of ``b``: one system per row.

        Columns become contiguous rows so that a batch entry sees the
        same operand layout in a ``k``-column solve as in a 1-D one.
        """
        b = bk.asarray(b)
        dtype = bk.result_type(self.dtype, b)
        if b.ndim == 1:
            return bk.astype(bk.copy(b), dtype)[None, :]
        cols = [b[:, j] for j in range(b.shape[1])]
        if not cols:
            return bk.zeros((0, self.n), dtype=dtype)
        return bk.astype(bk.stack(cols, axis=0), dtype)

    @staticmethod
    def _columns_of(bk, xt, b):
        """Undo :meth:`_rows_of`: back to the shape of ``b``."""
        if len(b.shape) == 1:
            return xt[0]
        if xt.shape[0] == 0:
            return bk.zeros(tuple(b.shape), dtype=bk.dtype_of(xt))
        return bk.stack([xt[j] for j in range(xt.shape[0])], axis=1)

    # ------------------------------------------------------------------
    def kernel_profile(self) -> KernelProfile:
        """One team kernel per level for a single triangular solve.

        Work per supernode of width ``w`` with ``m`` below-rows:
        ``w^2`` flops for the dense triangular solve plus ``2 w m`` for
        the panel GEMV; bytes cover the dense block and the touched
        vector entries.  Parallelism is the total rows active in the
        level (team-level parallelism inside blocks plus independent
        blocks).  (The modeled clock prices the paper's kernel; the
        batched host execution does not change it.)
        """
        prof = KernelProfile()
        itemsize = np.dtype(self.dtype).itemsize
        flops = np.zeros(self.n_levels)
        bytes_ = np.zeros(self.n_levels)
        rows_active = np.zeros(self.n_levels)
        for level, sns, cols, rows in self.schedule.classes:
            g, w, m = sns.size, cols.shape[1], rows.shape[1]
            flops[level] += g * (w * w + 2.0 * w * m)
            bytes_[level] += g * ((w + m) * w * itemsize + (w + m) * 2 * itemsize)
            rows_active[level] += g * (w + m)
        for lv in range(self.n_levels):
            prof.add(
                "sptrsv.supernode_level",
                float(flops[lv]),
                float(bytes_[lv]),
                parallelism=max(float(rows_active[lv]), 1.0),
            )
        return prof

    @classmethod
    def from_csc(
        cls,
        l_indptr: np.ndarray,
        l_indices: np.ndarray,
        l_data: np.ndarray,
        n: int,
        unit_diagonal: bool = False,
        max_width: int = 64,
    ) -> "SupernodalTriangular":
        """Build from a CSC lower factor (e.g. a Gilbert--Peierls L).

        This is the "Kokkos-Kernels SpTRSV on SuperLU factors" path of
        the paper: supernodes are detected in the factor after numeric
        factorization, which is part of why the SuperLU GPU setup is
        expensive (Table III(a) / Fig. 4).
        """
        sn_ptr = detect_supernodes(l_indptr, l_indices, max_width=max_width)
        rows_below: List[np.ndarray] = []
        blocks: List[np.ndarray] = []
        for s in range(sn_ptr.size - 1):
            c0, c1 = int(sn_ptr[s]), int(sn_ptr[s + 1])
            w = c1 - c0
            first = l_indices[l_indptr[c0] : l_indptr[c0 + 1]]
            below = first[w:]  # struct(col c0) = [c0..c1) ++ below, sorted
            blk = np.zeros((w + below.size, w), dtype=l_data.dtype)
            for k in range(w):
                vals = l_data[l_indptr[c0 + k] : l_indptr[c0 + k + 1]]
                blk[k:, k] = vals
            rows_below.append(below.astype(np.int64))
            blocks.append(blk)
        return cls(n, sn_ptr, rows_below, blocks, unit_diagonal=unit_diagonal)


def _invert_diagonal_blocks(
    stacks: Sequence[np.ndarray], unit_diagonal: bool
) -> List[np.ndarray]:
    """Inverses of the ``w x w`` lower-triangular heads of ``(g, w + m, w)`` stacks.

    Only the lower triangle (and, unless ``unit_diagonal``, the
    diagonal) of each head is read, as in a triangular solve.  One
    LAPACK ``trtri`` per block, so a block's inverse does not depend on
    its batch.
    """
    from scipy.linalg import get_lapack_funcs

    out: List[np.ndarray] = []
    trtri = None
    for stack in stacks:
        g, _, w = stack.shape
        if w == 1:
            if unit_diagonal:
                out.append(np.ones((g, 1, 1), dtype=stack.dtype))
                continue
            if np.any(stack[:, 0, 0] == 0):
                raise ZeroDivisionError("zero on the diagonal")
            out.append(1.0 / stack[:, :1, :])
            continue
        if trtri is None:
            (trtri,) = get_lapack_funcs(("trtri",), (stack,))
        # trtri leaves the strict upper triangle (and a unit diagonal)
        # of its input in place: start from the lower triangle alone
        inv = np.tril(stack[:, :w])
        for i in range(g):
            inv[i], info = trtri(inv[i], lower=1, unitdiag=int(unit_diagonal))
            if info > 0:
                raise ZeroDivisionError("zero on the diagonal")
        if unit_diagonal:
            idx = np.arange(w)
            inv[:, idx, idx] = 1.0
        out.append(inv)
    return out
