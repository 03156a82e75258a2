"""Multifrontal supernodal Cholesky / LDL^T (the Tacho model).

Tacho [Kim, Edwards, Rajamanickam 2018] factors symmetric matrices with
a multifrontal method: the elimination tree is processed leaves-to-root,
each supernode assembling a dense *frontal matrix* from the original
matrix entries plus the children's update (Schur-complement) matrices,
factoring its pivot block with dense kernels, and passing the update
matrix to its parent (extend-add).  Pivoting happens only inside fronts,
so the factor structure is value-independent: the symbolic phase is
computed once and reused across refactorizations -- the key structural
advantage over SuperLU in Tables III and Fig. 4.

On the GPU, Tacho executes the assembly tree with level-set scheduling
and team-level dense kernels (cuBLAS/cuSolver for large fronts); here
the dense frontal work delegates to numpy/LAPACK and the level structure
feeds the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

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

__all__ = ["MultifrontalCholesky", "TachoSymbolic"]


@dataclass(frozen=True)
class TachoSymbolic:
    """Everything :meth:`MultifrontalCholesky.symbolic` derives from a pattern.

    Immutable and shared: every solver analysing the same
    ``(ordering, max_supernode, pattern)`` holds this one object (see
    :func:`repro.reuse.symbolic.shared_symbolic`), so nothing may write
    to it -- the numeric phase only reads.
    """

    #: fill-reducing permutation (``perm[k]`` = old index at position k)
    perm: np.ndarray
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


def _analyse(a: CsrMatrix, ordering: str, max_supernode: int) -> TachoSymbolic:
    """Ordering, elimination tree, factor pattern, supernodes, schedule."""
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

    analysis = Kernel(
        "symbolic.tacho_analysis",
        flops=0.0,
        bytes=float(a.nnz * 12 + int(col_ind.size) * 12 + n * 32),
    )
    frozen_arrays(perm, col_ptr, col_ind, sn_ptr, sn_parent, levels, *rows_below)
    return TachoSymbolic(
        perm=perm,
        col_ptr=col_ptr,
        col_ind=col_ind,
        sn_ptr=sn_ptr,
        rows_below=tuple(rows_below),
        sn_parent=sn_parent,
        children=tuple(tuple(c) for c in children),
        levels=levels,
        schedule=schedule,
        profile=(analysis,),
    )


class MultifrontalCholesky(DirectSolver):
    """Multifrontal supernodal Cholesky (or LDL^T) factorization.

    Parameters
    ----------
    ordering:
        Fill-reducing ordering: ``"nd"`` (default), ``"rcm"`` or
        ``"natural"``.
    mode:
        ``"cholesky"`` for SPD input; ``"ldlt"`` stores unit-diagonal
        ``L`` and a diagonal ``D`` (symmetric indefinite without
        pivoting across fronts, like Tacho's LDL^T).
    max_supernode:
        Width cap for supernode amalgamation (bounds frontal sizes).
    """

    symbolic_reusable = True

    def __init__(
        self,
        ordering: str = "nd",
        mode: str = "cholesky",
        max_supernode: int = 64,
    ) -> None:
        super().__init__()
        if mode not in ("cholesky", "ldlt"):
            raise ValueError("mode must be 'cholesky' or 'ldlt'")
        self.ordering = ordering
        self.mode = mode
        self.max_supernode = int(max_supernode)
        self.perm: Optional[np.ndarray] = None
        self._snt: Optional[SupernodalTriangular] = None
        self._d: Optional[np.ndarray] = None

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
        self.symbolic_record, self._pattern_fp = shared_symbolic(
            ("tacho", ordering, self.max_supernode),
            a,
            lambda: _analyse(a, ordering, self.max_supernode),
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

        A matrix whose pattern differs from the symbolic stamp raises
        :class:`~repro.reuse.fingerprint.PatternChangedError` -- the
        frontal scatter would otherwise index through a stale position
        map and silently build factors of the wrong structure.
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
        d_all = np.empty(n, dtype=np.float64)
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
            f11 = front[:w, :w]
            f21 = front[w:, :w]
            if self.mode == "cholesky":
                try:
                    l11 = np.linalg.cholesky(f11)
                except np.linalg.LinAlgError as err:
                    from repro.resilience.detect import PivotBreakdownError

                    # pivot-free factorization: a non-positive pivot is
                    # fatal here; the resilience ladder responds with a
                    # diagonal shift or a pivoting-LU fallback
                    raise PivotBreakdownError(
                        f"tacho: Cholesky breakdown in supernode {s} "
                        f"(columns {c0}:{c1}): {err}",
                        index=int(c0),
                        solver="tacho",
                    ) from err
                from scipy.linalg import solve_triangular

                l21 = (
                    solve_triangular(l11, f21.T, lower=True, check_finite=False).T
                    if m
                    else f21
                )
                upd = front[w:, w:] - l21 @ l21.T if m else None
                blocks.append(np.vstack([l11, l21]) if m else l11)
                d_all[c0:c1] = 1.0
            else:  # ldlt: A11 = L11 D L11^T with unit L
                l11, d = _dense_ldlt(f11)
                from scipy.linalg import solve_triangular

                if m:
                    # L21 = A21 L11^{-T} D^{-1}
                    tmp = solve_triangular(
                        l11, f21.T, lower=True, unit_diagonal=True, check_finite=False
                    ).T
                    l21 = tmp / d[None, :]
                    upd = front[w:, w:] - (l21 * d[None, :]) @ l21.T
                else:
                    l21 = f21
                    upd = None
                blocks.append(np.vstack([l11, l21]) if m else l11)
                d_all[c0:c1] = d
            if m:
                updates[s] = upd
            pos[idx] = -1  # keep the position map clean for the invariant check

            lv = int(sym.levels[s])
            flops_per_level[lv] += w**3 / 3.0 + w * w * m + w * m * m
            bytes_per_level[lv] += 8.0 * (w + m) ** 2
            rows_per_level[lv] += w + m

        self._snt = SupernodalTriangular(
            n,
            self.sn_ptr,
            sym.rows_below,
            blocks,
            unit_diagonal=(self.mode == "ldlt"),
            schedule=sym.schedule,
        )
        self._d = d_all
        self.iperm = inverse_permutation(self.perm)
        self.stages = FactoredSolve(
            perm_in=self.perm,
            lower=(self._snt, "solve_forward"),
            upper=(self._snt, "solve_backward"),
            perm_out=self.iperm,
            diag=d_all if self.mode == "ldlt" else None,
        )

        self.numeric_profile = KernelProfile()
        for lv in range(flops_per_level.size):
            self.numeric_profile.add(
                "factor.tacho_front_level",
                flops=float(flops_per_level[lv]),
                bytes=float(bytes_per_level[lv]),
                parallelism=float(max(rows_per_level[lv], 1.0)),
            )
        self.solve_profile = KernelProfile()
        self.solve_profile.extend(self._snt.kernel_profile())
        self.solve_profile.extend(self._snt.kernel_profile())  # fwd + bwd
        self._numeric_done = True
        return self

    # ------------------------------------------------------------------
    @property
    def factor(self) -> SupernodalTriangular:
        """The supernodal triangular factor (for the GPU solve path)."""
        self._require("solve")
        return self._snt


def _dense_ldlt(a: np.ndarray):
    """Dense LDL^T without pivoting; returns unit-lower ``L`` and ``d``.

    Raises :class:`~repro.resilience.detect.PivotBreakdownError` (a
    ``ZeroDivisionError`` subclass) on an exactly-zero pivot -- or, when
    a resilience engine with detection is active, on a *near*-zero
    pivot relative to the front's diagonal scale.
    """
    from repro.resilience.context import get_engine
    from repro.resilience.detect import check_pivot

    eng = get_engine()
    pivot_rtol = eng.pivot_rtol if eng is not None else 0.0
    n = a.shape[0]
    scale = float(np.max(np.abs(np.diag(a)))) if n else 1.0
    l = np.eye(n)
    d = np.empty(n)
    a = a.copy()
    for j in range(n):
        d[j] = a[j, j]
        check_pivot(float(d[j]), scale, j, "tacho-ldlt", rtol=pivot_rtol)
        l[j + 1 :, j] = a[j + 1 :, j] / d[j]
        a[j + 1 :, j + 1 :] -= np.outer(l[j + 1 :, j], l[j + 1 :, j]) * d[j]
    return l, d
