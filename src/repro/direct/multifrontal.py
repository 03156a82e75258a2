"""Multifrontal supernodal Cholesky (the Tacho model).

Tacho [Kim, Edwards, Rajamanickam 2018] factors symmetric matrices with
a multifrontal method: the elimination tree is processed leaves-to-root,
each supernode assembling a dense *frontal matrix* from the original
matrix entries plus the children's update (Schur-complement) matrices,
factoring its pivot block with dense kernels, and passing the update
matrix to its parent (extend-add).  Pivoting happens only inside fronts,
so the factor structure is value-independent: the symbolic phase is
computed once and reused across refactorizations -- the key structural
advantage over SuperLU in Tables III and Fig. 4.

Everything about a factorization that depends on the pattern alone is
computed once, in the symbolic phase, into the shared
:class:`TachoSymbolic` record.  That includes the *assembly plan*: where
each entry of ``a.data`` lands in its front (so the numeric phase never
permutes or transposes ``A``), where each child's update lands in its
parent's front, which class-stack slot each factor block fills, and the
per-level work the machine model prices.  A numeric factorization is
then, per supernode, one gather-assign into a zeroed front, one
``+=`` per child, the dense kernels, and a copy of the block into its
stack -- the same arithmetic, in the same order, as the column-scatter
loop it replaced (kept as :meth:`MultifrontalCholesky._numeric_reference`,
its differential twin).

On the GPU, Tacho executes the assembly tree with level-set scheduling
and team-level dense kernels (cuBLAS/cuSolver for large fronts); here
the dense frontal work delegates to numpy/LAPACK and the level structure
feeds the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg import solve_triangular

from repro.direct.base import DirectSolver
from repro.machine.kernels import Kernel, KernelProfile
from repro.ordering import canonical_ordering, ordering_permutation
from repro.ordering.etree import symbolic_cholesky
from repro.reuse.fingerprint import check_same_pattern
from repro.reuse.symbolic import frozen_arrays, shared_symbolic
from repro.sparse.blocks import inverse_permutation, permute
from repro.sparse.csr import CsrMatrix
from repro.tri.factored import FactoredSolve
from repro.tri.supernodal import (
    SupernodalTriangular,
    SupernodeSchedule,
    detect_supernodes,
)

__all__ = ["MAX_SUPERNODE", "MultifrontalCholesky", "TachoSymbolic"]

#: width cap for supernode amalgamation (bounds frontal sizes); read
#: when the analysis runs, and part of the shared symbolic record's key
MAX_SUPERNODE = 64


@dataclass(frozen=True)
class TachoSymbolic:
    """Everything :meth:`MultifrontalCholesky.symbolic` derives from a pattern.

    Immutable and shared: every solver analysing the same
    ``(ordering, MAX_SUPERNODE, pattern)`` holds this one object (see
    :func:`repro.reuse.symbolic.shared_symbolic`), so nothing may write
    to it -- the numeric phase only reads.  Front positions are flat
    row-major indices into a supernode's ``(f, f)`` front,
    ``f = width + len(rows_below[s])``, stored as int32 (a front with
    ``f * f >= 2**31`` would need 17 GB and is refused).
    """

    #: fill-reducing permutation (``perm[k]`` = old index at position k)
    perm: np.ndarray
    #: its inverse (``iperm[old]`` = position)
    iperm: np.ndarray
    #: CSC pattern of ``L`` over the permuted matrix (diagonal included)
    col_ptr: np.ndarray
    col_ind: np.ndarray
    #: supernode column partition
    sn_ptr: np.ndarray
    #: per supernode, the row indices strictly below its diagonal block
    rows_below: Tuple[np.ndarray, ...]
    #: assembly tree: parent supernode (-1 for roots) and children lists
    sn_parent: np.ndarray
    children: Tuple[Tuple[int, ...], ...]
    #: assembly-tree height of each supernode (== forward-solve level)
    levels: np.ndarray
    #: the supernodal solve's level/class plan
    schedule: SupernodeSchedule
    #: kernels of the analysis itself (the modeled symbolic cost)
    profile: Tuple[Kernel, ...]
    #: assembly of ``A``: the ``a.data`` positions of the lower triangle
    #: of ``P A P^T``, grouped by destination (``np.add.reduceat`` over
    #: ``scatter_seg`` sums duplicate CSR entries, in CSR order)
    scatter_src: np.ndarray
    scatter_seg: np.ndarray
    #: front position of each summed entry; supernode ``s`` owns
    #: ``scatter_dst[scatter_ptr[s]:scatter_ptr[s + 1]]``
    scatter_dst: np.ndarray
    scatter_ptr: np.ndarray
    #: extend-add: the parent-front positions of child ``t``'s update,
    #: row-major, in ``extend_pos[extend_ptr[t]:extend_ptr[t + 1]]``
    extend_pos: np.ndarray
    extend_ptr: np.ndarray
    #: where supernode ``s``'s block goes: ``schedule.classes[stack_class[s]]``,
    #: member ``stack_slot[s]``
    stack_class: np.ndarray
    stack_slot: np.ndarray
    #: the numeric phase's ``factor.tacho_front_level`` kernels (flops,
    #: bytes and rows per assembly-tree level are pattern-only)
    front_profile: Tuple[Kernel, ...]

    @property
    def plan_bytes(self) -> int:
        """Bytes of the assembly plan (the arrays the numeric phase reads)."""
        return sum(
            arr.nbytes
            for arr in (
                self.scatter_src, self.scatter_seg, self.scatter_dst,
                self.scatter_ptr, self.extend_pos, self.extend_ptr,
                self.stack_class, self.stack_slot,
            )
        )


def _analyse(a: CsrMatrix, ordering: str, max_supernode: int) -> TachoSymbolic:
    """Ordering, elimination tree, factor pattern, supernodes, schedule,
    assembly plan."""
    n = a.n_rows
    perm = ordering_permutation(a, ordering)
    ap = permute(a, perm)

    # row-wise factor pattern -> column (CSC) pattern for supernodes
    l_row_ptr, l_row_ind, _ = symbolic_cholesky(ap)
    lpat = CsrMatrix(
        l_row_ptr, l_row_ind, np.ones(l_row_ind.size), (n, n)
    ).transpose()  # rows of transpose = columns of L, sorted ascending
    col_ptr, col_ind = lpat.indptr, lpat.indices
    sn_ptr = detect_supernodes(col_ptr, col_ind, max_width=max_supernode)
    n_sn = sn_ptr.size - 1

    # per-supernode below-rows: the first column's pattern past the block
    rows_below: List[np.ndarray] = []
    col2sn = np.empty(n, dtype=np.int64)
    for s in range(n_sn):
        c0, c1 = int(sn_ptr[s]), int(sn_ptr[s + 1])
        col2sn[c0:c1] = s
        first = col_ind[col_ptr[c0] : col_ptr[c0 + 1]]
        rows_below.append(first[c1 - c0 :].astype(np.int64))

    # assembly tree: parent supernode = owner of the first below-row
    sn_parent = np.full(n_sn, -1, dtype=np.int64)
    children: List[List[int]] = [[] for _ in range(n_sn)]
    # level-set schedule over the assembly tree (for the GPU profile)
    levels = np.zeros(n_sn, dtype=np.int64)
    for s in range(n_sn):  # children have smaller indices than parents
        rb = rows_below[s]
        if rb.size:
            p = int(col2sn[rb[0]])
            sn_parent[s] = p
            children[p].append(s)
            levels[p] = max(levels[p], levels[s] + 1)
    # the supernodal solve's level/class plan is pattern-only too
    schedule = SupernodeSchedule(n, sn_ptr, rows_below, levels=levels)
    iperm = inverse_permutation(perm)
    plan = _assembly_plan(a, iperm, sn_ptr, col2sn, rows_below, sn_parent)
    stack_class = np.empty(n_sn, dtype=np.int64)
    stack_slot = np.empty(n_sn, dtype=np.int64)
    for c, (_, sns, _, _) in enumerate(schedule.classes):
        stack_class[sns] = c
        stack_slot[sns] = np.arange(sns.size)

    analysis = Kernel(
        "symbolic.tacho_analysis",
        flops=0.0,
        bytes=float(a.nnz * 12 + int(col_ind.size) * 12 + n * 32),
    )
    frozen_arrays(
        perm, iperm, col_ptr, col_ind, sn_ptr, sn_parent, levels,
        stack_class, stack_slot, *plan, *rows_below,
    )
    return TachoSymbolic(
        perm=perm,
        iperm=iperm,
        col_ptr=col_ptr,
        col_ind=col_ind,
        sn_ptr=sn_ptr,
        rows_below=tuple(rows_below),
        sn_parent=sn_parent,
        children=tuple(tuple(c) for c in children),
        levels=levels,
        schedule=schedule,
        profile=(analysis,),
        scatter_src=plan[0],
        scatter_seg=plan[1],
        scatter_dst=plan[2],
        scatter_ptr=plan[3],
        extend_pos=plan[4],
        extend_ptr=plan[5],
        stack_class=stack_class,
        stack_slot=stack_slot,
        front_profile=_front_profile(sn_ptr, rows_below, levels),
    )


def _assembly_plan(
    a: CsrMatrix,
    iperm: np.ndarray,
    sn_ptr: np.ndarray,
    col2sn: np.ndarray,
    rows_below: List[np.ndarray],
    sn_parent: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Front positions of ``a``'s entries and of every child update.

    Returns ``(scatter_src, scatter_seg, scatter_dst, scatter_ptr,
    extend_pos, extend_ptr)`` (see :class:`TachoSymbolic`).  A front's
    rows are ``[c0, c1) ++ rows_below[s]`` (sorted), so one sorted key
    array ``s * n + row`` over all fronts locates any (supernode, row)
    pair with a single ``searchsorted``.
    """
    n = a.n_rows
    n_sn = sn_ptr.size - 1
    widths = np.diff(sn_ptr)
    fsize = widths + np.fromiter(
        (rb.size for rb in rows_below), dtype=np.int64, count=n_sn
    )
    if n_sn and int(fsize.max()) ** 2 >= 2**31:
        raise ValueError(
            f"tacho: a front of {int(fsize.max())} rows exceeds the int32 "
            "position range of the assembly plan"
        )
    front_rows = [
        np.concatenate([np.arange(sn_ptr[s], sn_ptr[s + 1]), rows_below[s]])
        for s in range(n_sn)
    ]
    keys = np.repeat(np.arange(n_sn, dtype=np.int64), fsize) * n + (
        np.concatenate(front_rows) if n_sn else np.zeros(0, dtype=np.int64)
    )
    front_start = np.concatenate([[0], np.cumsum(fsize)])

    def locate(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        want = s * n + rows
        at = np.searchsorted(keys, want)
        if want.size and (at.max() >= keys.size or np.any(keys[at] != want)):
            raise AssertionError("entry rows escape their front")  # pragma: no cover
        return at - front_start[s]

    # A: the lower triangle of P A P^T, column pj into pj's supernode
    pi = iperm[a.expanded_rows()]
    pj = iperm[a.indices]
    src = np.flatnonzero(pi >= pj)
    pi, pj = pi[src], pj[src]
    s = col2sn[pj]
    dst = locate(s, pi) * fsize[s] + (pj - sn_ptr[s])
    # group by (supernode, position); duplicates keep their CSR order
    flat = np.concatenate([[0], np.cumsum(fsize * fsize)])[s] + dst
    by_dst = np.argsort(flat, kind="stable")
    src, s, dst, flat = src[by_dst], s[by_dst], dst[by_dst], flat[by_dst]
    seg = np.flatnonzero(np.concatenate([[True], flat[1:] != flat[:-1]]))
    scatter_ptr = np.searchsorted(s[seg], np.arange(n_sn + 1))

    # extend-add: child t's update rows inside its parent's front
    ext = [np.zeros(0, dtype=np.int64)]
    for t in range(n_sn):
        p = int(sn_parent[t])
        loc = locate(np.full(rows_below[t].size, p), rows_below[t])
        ext.append((loc[:, None] * fsize[p] + loc[None, :]).ravel())
    extend_ptr = np.cumsum([e.size for e in ext], dtype=np.int64)
    return (
        src.astype(np.int32),
        seg.astype(np.int32),
        dst[seg].astype(np.int32),
        scatter_ptr,
        np.concatenate(ext).astype(np.int32),
        extend_ptr,
    )


def _front_profile(
    sn_ptr: np.ndarray, rows_below: List[np.ndarray], levels: np.ndarray
) -> Tuple[Kernel, ...]:
    """One ``factor.tacho_front_level`` kernel per assembly-tree level.

    Accumulated supernode by supernode, exactly as the numeric loop of
    :meth:`MultifrontalCholesky._numeric_reference` does.
    """
    n_sn = sn_ptr.size - 1
    flops_per_level = np.zeros(int(levels.max()) + 1 if n_sn else 1)
    bytes_per_level = np.zeros_like(flops_per_level)
    rows_per_level = np.zeros_like(flops_per_level)
    for s in range(n_sn):
        w = int(sn_ptr[s + 1] - sn_ptr[s])
        m = rows_below[s].size
        lv = int(levels[s])
        flops_per_level[lv] += w**3 / 3.0 + w * w * m + w * m * m
        bytes_per_level[lv] += 8.0 * (w + m) ** 2
        rows_per_level[lv] += w + m
    return tuple(
        Kernel(
            "factor.tacho_front_level",
            float(flops_per_level[lv]),
            float(bytes_per_level[lv]),
            parallelism=float(max(rows_per_level[lv], 1.0)),
        )
        for lv in range(flops_per_level.size)
    )


class MultifrontalCholesky(DirectSolver):
    """Multifrontal supernodal Cholesky factorization of an SPD matrix.

    Parameters
    ----------
    ordering:
        Fill-reducing ordering: ``"nd"`` (default) or ``"natural"``.
    """

    symbolic_reusable = True

    def __init__(self, ordering: str = "nd") -> None:
        super().__init__()
        self.ordering = ordering
        self.perm: Optional[np.ndarray] = None
        self._snt: Optional[SupernodalTriangular] = None

    # ------------------------------------------------------------------
    def symbolic(self, a: CsrMatrix) -> "MultifrontalCholesky":
        """Ordering, elimination tree, factor pattern, supernodes.

        All pattern-derived structure (supernode partition, per-front row
        sets, assembly-tree levels) is computed here and reused by every
        subsequent :meth:`numeric` call -- and, as one immutable
        :class:`TachoSymbolic`, by every other solver analysing the same
        pattern under the ambient artifact cache.
        """
        if a.n_rows != a.n_cols:
            raise ValueError("square matrix required")
        ordering = canonical_ordering(self.ordering)
        width = MAX_SUPERNODE
        self.symbolic_record, self._pattern_fp = shared_symbolic(
            ("tacho", ordering, width), a, lambda: _analyse(a, ordering, width)
        )
        self.perm = self.symbolic_record.perm
        self.sn_ptr = self.symbolic_record.sn_ptr
        self.symbolic_profile = KernelProfile(self.symbolic_record.profile)
        self._symbolic_done = True
        self._numeric_done = False
        return self

    # ------------------------------------------------------------------
    def numeric(self, a: CsrMatrix) -> "MultifrontalCholesky":
        """Numerical multifrontal factorization (same pattern as symbolic).

        Runs on the symbolic record's assembly plan: per supernode, one
        gather-assign of ``a.data`` into a zeroed front, one ``+=`` per
        child update (in ``children[s]`` order), the dense pivot-block
        kernels and the Schur update, with the block written straight
        into its class stack.  Every call allocates fresh stacks, so a
        :class:`~repro.dd.local_solvers.FactoredLocal` built from an
        earlier call keeps its factor.  Bit-identical to
        :meth:`_numeric_reference`.

        A matrix whose pattern differs from the symbolic stamp raises
        :class:`~repro.reuse.fingerprint.PatternChangedError` -- the
        assembly plan would otherwise index through stale positions and
        silently build factors of the wrong structure.
        """
        self._require("numeric")
        check_same_pattern(self._pattern_fp, a, "tacho")
        sym = self.symbolic_record
        vals = (
            np.add.reduceat(a.data[sym.scatter_src], sym.scatter_seg)
            if sym.scatter_seg.size
            else a.data[:0]
        )
        dst, sp = sym.scatter_dst, sym.scatter_ptr.tolist()
        ext, ep = sym.extend_pos, sym.extend_ptr.tolist()
        sn_ptr = sym.sn_ptr.tolist()
        stacks = [
            np.empty((sns.size, cols.shape[1] + rows.shape[1], cols.shape[1]))
            for _, sns, cols, rows in sym.schedule.classes
        ]
        slots = zip(sym.stack_class.tolist(), sym.stack_slot.tolist())
        updates: List[Optional[np.ndarray]] = [None] * len(sym.rows_below)

        for s, (rb, (c, i)) in enumerate(zip(sym.rows_below, slots)):
            c0, c1 = sn_ptr[s], sn_ptr[s + 1]
            w, m = c1 - c0, rb.size
            f = w + m
            flat = np.zeros(f * f)
            # int32 in the record, intp to index (numpy casts int32 index
            # arrays chunk by chunk inside the scatter, ~2x slower)
            flat[dst[sp[s] : sp[s + 1]].astype(np.intp)] = vals[sp[s] : sp[s + 1]]
            for t in sym.children[s]:
                flat[ext[ep[t] : ep[t + 1]].astype(np.intp)] += updates[t].ravel()
                updates[t] = None
            front = flat.reshape(f, f)

            block = stacks[c][i]
            l11 = _front_cholesky(front[:w, :w], s, c0, c1)
            block[:w] = l11
            if m:
                l21 = solve_triangular(
                    l11, front[w:, :w].T, lower=True, check_finite=False
                ).T
                block[w:] = l21
                updates[s] = front[w:, w:] - l21 @ l21.T

        return self._finish(
            SupernodalTriangular.from_stacks(sym.schedule, stacks),
            KernelProfile(sym.front_profile),
        )

    def _numeric_reference(self, a: CsrMatrix) -> "MultifrontalCholesky":
        """The column-scatter numeric phase :meth:`numeric` replaced.

        Permutes and transposes ``A``, fills a position map per
        supernode, scatters ``A`` column by column and extend-adds
        through ``np.ix_``; kept as the executable specification that
        :meth:`numeric` must match bit for bit (tests and the kernel
        bench call it; no solve path does).
        """
        self._require("numeric")
        check_same_pattern(self._pattern_fp, a, "tacho")
        sym = self.symbolic_record
        n = a.n_rows
        ap = permute(a, self.perm)
        alow = ap.transpose()  # CSC of ap: column j = row j of transpose
        n_sn = self.sn_ptr.size - 1

        # front position maps
        blocks: List[np.ndarray] = []
        updates: List[Optional[np.ndarray]] = [None] * n_sn
        pos = np.full(n, -1, dtype=np.int64)

        flops_per_level = np.zeros(int(sym.levels.max()) + 1 if n_sn else 1)
        bytes_per_level = np.zeros_like(flops_per_level)
        rows_per_level = np.zeros_like(flops_per_level)

        for s in range(n_sn):
            c0, c1 = int(self.sn_ptr[s]), int(self.sn_ptr[s + 1])
            w = c1 - c0
            rb = sym.rows_below[s]
            m = rb.size
            idx = np.concatenate([np.arange(c0, c1, dtype=np.int64), rb])
            front = np.zeros((w + m, w + m))
            pos[idx] = np.arange(w + m)

            # scatter original matrix columns (lower part) into the front
            for k in range(w):
                col = c0 + k
                lo, hi = alow.indptr[col], alow.indptr[col + 1]
                rows = alow.indices[lo:hi]
                vals = alow.data[lo:hi]
                keep = rows >= col
                front[pos[rows[keep]], k] = vals[keep]

            # extend-add children updates
            for t in sym.children[s]:
                upd = updates[t]
                rbt = sym.rows_below[t]
                p = pos[rbt]
                if np.any(p < 0):  # pragma: no cover - symbolic invariant
                    raise AssertionError("child update rows escape parent front")
                front[np.ix_(p, p)] += upd
                updates[t] = None

            # dense factorization of the pivot block
            l11 = _front_cholesky(front[:w, :w], s, c0, c1)
            if m:
                l21 = solve_triangular(
                    l11, front[w:, :w].T, lower=True, check_finite=False
                ).T
                updates[s] = front[w:, w:] - l21 @ l21.T
                blocks.append(np.vstack([l11, l21]))
            else:
                blocks.append(l11)
            pos[idx] = -1  # keep the position map clean for the invariant check

            lv = int(sym.levels[s])
            flops_per_level[lv] += w**3 / 3.0 + w * w * m + w * m * m
            bytes_per_level[lv] += 8.0 * (w + m) ** 2
            rows_per_level[lv] += w + m

        snt = SupernodalTriangular(
            n,
            self.sn_ptr,
            sym.rows_below,
            blocks,
            schedule=sym.schedule,
        )
        numeric_profile = KernelProfile()
        for lv in range(flops_per_level.size):
            numeric_profile.add(
                "factor.tacho_front_level",
                flops=float(flops_per_level[lv]),
                bytes=float(bytes_per_level[lv]),
                parallelism=float(max(rows_per_level[lv], 1.0)),
            )
        return self._finish(snt, numeric_profile)

    def _finish(
        self, snt: SupernodalTriangular, numeric_profile: KernelProfile
    ) -> "MultifrontalCholesky":
        """Install a finished factor: solve stages and profiles."""
        self._snt = snt
        self.iperm = self.symbolic_record.iperm
        self.stages = FactoredSolve(
            perm_in=self.perm,
            lower=(snt, "solve_forward"),
            upper=(snt, "solve_backward"),
            perm_out=self.iperm,
        )
        self.numeric_profile = numeric_profile
        sweep = snt.kernel_profile()
        self.solve_profile = KernelProfile(sweep.kernels * 2)  # fwd + bwd
        self._numeric_done = True
        return self

    # ------------------------------------------------------------------
    @property
    def factor(self) -> SupernodalTriangular:
        """The supernodal triangular factor (for the GPU solve path)."""
        self._require("solve")
        return self._snt


def _front_cholesky(f11: np.ndarray, s: int, c0: int, c1: int) -> np.ndarray:
    """Cholesky factor of supernode ``s``'s pivot block (columns ``c0:c1``).

    Pivot-free: a non-positive pivot raises
    :class:`~repro.resilience.detect.PivotBreakdownError` naming the
    supernode and its columns; the resilience ladder responds with a
    diagonal shift or a pivoting-LU fallback.
    """
    try:
        return np.linalg.cholesky(f11)
    except np.linalg.LinAlgError as err:
        from repro.resilience.detect import PivotBreakdownError

        raise PivotBreakdownError(
            f"tacho: Cholesky breakdown in supernode {s} "
            f"(columns {c0}:{c1}): {err}",
            index=int(c0),
            solver="tacho",
        ) from err
