"""FastILU: fine-grained iterative incomplete factorization.

[Chow & Patel 2015], Trilinos FastILU [Boman et al. 2016].  On the fixed
ILU(k) pattern ``S``, the factor entries are treated as unknowns of the
fixed-point equations

``l_ij = (a_ij - sum_{k<j} l_ik u_kj) / u_jj``   for ``i > j``,
``u_ij =  a_ij - sum_{k<i} l_ik u_kj``           for ``i <= j``,

updated with *Jacobi* sweeps: every entry is recomputed simultaneously
from the previous iterate.  One sweep costs about the same flops as the
standard IKJ factorization but is one massively parallel kernel instead
of a dependency-ordered traversal -- the paper's default is 3 sweeps for
the factorization (and 5 for the FastSpTRSV solves).

Implementation: the sweep's inner products are a *masked sparse product*
``(L_strict @ U)`` gathered at ``S``.  The expansion/segment structure
is precomputed once in the symbolic phase, so every sweep is a handful
of flat numpy gathers and one segmented reduction -- the numpy analogue
of the single fused GPU kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.ilu.iluk import (
    _row_pointer,
    _run_starts,
    _scatter_to_pattern,
    iluk_symbolic,
)
from repro.machine.kernels import KernelProfile
from repro.ordering import canonical_ordering, ordering_permutation
from repro.reuse.fingerprint import check_same_pattern
from repro.reuse.symbolic import frozen_arrays, shared_symbolic
from repro.resilience.context import get_engine
from repro.resilience.detect import (
    DivergenceError,
    PivotBreakdownError,
    sweep_divergence,
)
from repro.sparse.blocks import permute
from repro.sparse.csr import CsrMatrix
from repro.sparse.spgemm import _concat_ranges

__all__ = ["FastIlu", "FastIluSymbolic"]


def _diag_positions_reference(
    u_indptr: np.ndarray, u_indices: np.ndarray
) -> np.ndarray:
    """The seed row-at-a-time diagonal scan (executable spec + bench
    baseline); :func:`_diag_positions` must match it bit for bit."""
    n = u_indptr.size - 1
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo = u_indptr[i]
        if lo == u_indptr[i + 1] or u_indices[lo] != i:
            raise ValueError(f"pattern misses the diagonal in row {i}")
        diag_pos[i] = lo
    return diag_pos


def _diag_positions(u_indptr: np.ndarray, u_indices: np.ndarray) -> np.ndarray:
    """Position of each row's diagonal inside the U value array.

    For an upper-triangular CSR with sorted rows the diagonal, when
    present, is the first entry of its row -- so the scan reduces to one
    vectorized check of the row heads.  Raises for the first row whose
    pattern misses the diagonal, exactly like the reference loop.
    """
    n = u_indptr.size - 1
    lo = np.asarray(u_indptr[:-1], dtype=np.int64)
    empty = lo == u_indptr[1:]
    first_col = np.full(n, -1, dtype=np.int64)
    present = ~empty
    if u_indices.size:
        first_col[present] = u_indices[lo[present]]
    bad = empty | (first_col != np.arange(n, dtype=np.int64))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"pattern misses the diagonal in row {i}")
    return lo


def _expand_products(n, l_rows, l_cols, u_indptr, u_indices):
    """Every product of ``L_strict @ U`` in expansion order: per product
    its L value index, its U value index and its ``row * n + col`` key."""
    seg_len = u_indptr[l_cols + 1] - u_indptr[l_cols]
    gather_u = _concat_ranges(u_indptr[l_cols], seg_len)
    gather_l = np.repeat(np.arange(l_cols.size, dtype=np.int64), seg_len)
    key = np.repeat(l_rows, seg_len) * np.int64(n) + u_indices[gather_u]
    return gather_l, gather_u, key


def _sweep_plan_reference(n, l_rows, l_cols, u_indptr, u_indices, pat_key):
    """The seed sweep plan (executable spec): stable-sort *all* of the
    expansion by ``(row, col)``, then discard the segments that land
    outside the pattern.  :func:`_sweep_plan` must match it exactly."""
    gather_l, gather_u, key = _expand_products(n, l_rows, l_cols, u_indptr, u_indices)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = _run_starts(key)
    seg_len = np.diff(np.append(starts, key.size))
    entry = np.searchsorted(pat_key, key[starts])
    ok = pat_key[np.minimum(entry, pat_key.size - 1)] == key[starts]
    keep = np.repeat(ok, seg_len)
    return (
        gather_l[order][keep],
        gather_u[order][keep],
        np.cumsum(seg_len[ok]) - seg_len[ok],
        entry[ok],
        int(key.size),
    )


def _sweep_plan(n, l_rows, l_cols, u_indptr, u_indices, pat_key):
    """Gather/segment plan of the masked product ``(L_strict @ U)`` at ``S``.

    ``l_rows``/``l_cols`` are the strict-lower pattern entries,
    ``u_indptr``/``u_indices`` the upper part as CSR and ``pat_key`` the
    sorted ``row * n + col`` keys of the whole pattern.  Product
    ``l_ik * u_kj`` contributes to pattern entry ``(i, j)``; the products
    of one entry form one segment, summed once per sweep.  Products
    landing outside the pattern (a third of them at level 1) are dropped
    with one ``searchsorted`` *before* the stable sort: whole segments
    go and the order inside every kept segment is still that of the
    expansion, so a sweep sums the same numbers in the same order.

    Returns ``(gather_l, gather_u, seg_starts, seg_targets,
    expansion_pairs)``: per kept product its L and U value index, per
    segment its first product and the pattern entry it updates, and the
    size of the unfiltered expansion (which the modeled symbolic cost
    stays priced on).
    """
    gather_l, gather_u, key = _expand_products(n, l_rows, l_cols, u_indptr, u_indices)
    entry = np.searchsorted(pat_key, key)
    inside = pat_key[np.minimum(entry, pat_key.size - 1)] == key
    entry = entry[inside]
    # pattern positions order exactly like the (row, col) keys
    order = np.argsort(entry, kind="stable")
    entry = entry[order]
    starts = _run_starts(entry)
    return (
        gather_l[inside][order],
        gather_u[inside][order],
        starts,
        entry[starts],
        int(key.size),
    )


@dataclass(frozen=True)
class FastIluSymbolic:
    """The shared, immutable symbolic record of FastILU: ordering, ILU(k)
    pattern, its L/U split and the sweep plan (see
    :func:`repro.reuse.symbolic.shared_symbolic`)."""

    perm: np.ndarray
    #: ILU(k) pattern of the permuted matrix, and the row of every entry
    pptr: np.ndarray
    pind: np.ndarray
    rows_all: np.ndarray
    #: pattern entry ids of the strict-lower and of the upper part
    lower_idx: np.ndarray
    upper_idx: np.ndarray
    #: CSR structure of the two parts (the factors' index arrays)
    l_indptr: np.ndarray
    l_indices: np.ndarray
    u_indptr: np.ndarray
    u_indices: np.ndarray
    #: position of each row's diagonal inside the U value array
    diag_pos: np.ndarray
    #: the sweep plan, see :func:`_sweep_plan`
    gather_l: np.ndarray
    gather_u: np.ndarray
    seg_starts: np.ndarray
    seg_targets: np.ndarray
    expansion_pairs: int

    @property
    def masked_pairs(self) -> int:
        """Products landing inside the pattern: the fused kernel's true
        work (a real FastILU sweep walks the L-row/U-column
        intersections; the expansion is a vectorization convenience)."""
        return int(self.gather_l.size)


def _analyse(a: CsrMatrix, ordering: str, level: int) -> FastIluSymbolic:
    """Pattern + sweep-expansion precomputation (value independent)."""
    n = a.n_rows
    perm = ordering_permutation(a, ordering)
    pptr, pind = iluk_symbolic(permute(a, perm), level)
    rows_all = np.repeat(np.arange(n, dtype=np.int64), np.diff(pptr))
    lower_idx = np.flatnonzero(pind < rows_all)
    upper_idx = np.flatnonzero(pind >= rows_all)

    # CSR structure of L_strict and U: the pattern is row-major, so each
    # part's entries are already in CSR order
    l_indptr, l_indices = _row_pointer(rows_all[lower_idx], n), pind[lower_idx]
    u_indptr, u_indices = _row_pointer(rows_all[upper_idx], n), pind[upper_idx]
    *plan, expansion_pairs = _sweep_plan(
        n, rows_all[lower_idx], l_indices, u_indptr, u_indices,
        rows_all * np.int64(n) + pind,
    )
    return FastIluSymbolic(
        *frozen_arrays(
            perm, pptr, pind, rows_all, lower_idx, upper_idx,
            l_indptr, l_indices, u_indptr, u_indices,
            _diag_positions(u_indptr, u_indices),
            *plan,
        ),
        expansion_pairs=expansion_pairs,
    )


class FastIlu:
    """Iterative ILU(k) on the Chow--Patel fixed-point iteration.

    Parameters
    ----------
    level:
        Fill level of the target pattern.
    sweeps:
        Number of Jacobi sweeps of the factorization (paper default 3).
    ordering:
        ``"natural"`` or ``"nd"`` symmetric pre-ordering.
    damping:
        Under-relaxation of the fixed-point update (one of the paper's
        Table I FastILU knobs); the undamped synchronous iteration can
        diverge on stiff elasticity blocks.

    After :meth:`numeric`: ``l`` (strict lower, unit diagonal implicit)
    and ``u`` (upper with diagonal) hold the approximate factors,
    ``update_norms`` the per-sweep damped update magnitudes
    ``||dL|| + ||dU||``, and ``diverged`` whether those norms grew
    instead of contracting (the divergence detector of
    :func:`repro.resilience.detect.sweep_divergence`; under an active
    resilience engine with detection a diverging factorization raises
    :class:`~repro.resilience.detect.DivergenceError` so the recovery
    ladder can boost damping or fall back).
    """

    def __init__(
        self,
        level: int = 0,
        sweeps: int = 3,
        ordering: str = "natural",
        damping: float = 0.7,
    ) -> None:
        if sweeps < 0:
            raise ValueError("sweeps must be non-negative")
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        self.level = int(level)
        self.sweeps = int(sweeps)
        self.ordering = ordering
        self.damping = float(damping)
        self.perm: Optional[np.ndarray] = None
        #: the shared immutable result of :meth:`symbolic`
        self.symbolic_record: Optional[FastIluSymbolic] = None
        self.l: Optional[CsrMatrix] = None
        self.u: Optional[CsrMatrix] = None
        self.symbolic_profile = KernelProfile()
        self.numeric_profile = KernelProfile()
        self._symbolic_done = False
        self.update_norms: List[float] = []
        self.diverged = False

    # ------------------------------------------------------------------
    def symbolic(self, a: CsrMatrix) -> "FastIlu":
        """Pattern + sweep-expansion precomputation (value independent),
        shared with every solver over the same pattern and options."""
        ordering = canonical_ordering(self.ordering)
        sym, self._pattern_fp = shared_symbolic(
            ("fastilu", ordering, self.level),
            a,
            lambda: _analyse(a, ordering, self.level),
        )
        self.symbolic_record = sym
        self.perm = sym.perm
        self.n = a.n_rows
        self.symbolic_profile = KernelProfile()
        self.symbolic_profile.add(
            "symbolic.fastilu_pattern",
            flops=0.0,
            bytes=float(sym.pind.size * 24 + sym.expansion_pairs * 16),
        )
        self._symbolic_done = True
        return self

    # ------------------------------------------------------------------
    def numeric(self, a: CsrMatrix) -> "FastIlu":
        """Run the configured number of Jacobi sweeps from the standard
        initial guess ``L0 = strict_lower(A) D^{-1}``, ``U0 = upper(A)``."""
        if not self._symbolic_done:
            raise RuntimeError("call symbolic() before numeric()")
        check_same_pattern(self._pattern_fp, a, "fastilu")
        sym = self.symbolic_record
        n = self.n
        pind, rows_all = sym.pind, sym.rows_all
        a_vals = _scatter_to_pattern(permute(a, self.perm), sym.pptr, pind)

        # symmetric diagonal scaling to unit diagonal (Chow & Patel):
        # the fixed-point iteration is only locally convergent, and
        # scaling keeps the initial guess inside its basin for stiff
        # (elasticity) blocks.  Factors L,U approximate S A S; callers
        # must wrap solves as A^{-1} ~ S (L U)^{-1} S with S = diag(s).
        diag = np.ones(n)
        on_diag = rows_all == pind
        diag[rows_all[on_diag]] = a_vals[on_diag]
        if np.any(diag <= 0):
            # indefinite/unscalable diagonal: fall back to no scaling
            self.row_scale = np.ones(n)
        else:
            self.row_scale = 1.0 / np.sqrt(diag)
        a_vals = a_vals * self.row_scale[rows_all] * self.row_scale[pind]
        a_l = a_vals[sym.lower_idx]
        a_u = a_vals[sym.upper_idx]

        l_vals = a_l.copy()
        u_vals = a_u.copy()
        # initial guess: scale L columns by the diagonal of A
        diag_a = u_vals[sym.diag_pos]
        if np.any(diag_a == 0):
            bad = int(np.flatnonzero(diag_a == 0)[0])
            raise PivotBreakdownError(
                "zero diagonal in FastILU initial guess at row "
                f"{bad}",
                index=bad,
                value=0.0,
                solver="fastilu",
            )
        l_vals = l_vals / diag_a[sym.l_indices]  # column j of each L entry

        eng = get_engine()
        self.update_norms = []
        self.diverged = False
        l_vals, u_vals = self._run_sweeps(a_l, a_u, l_vals, u_vals, eng)

        self.diverged = sweep_divergence(self.update_norms)
        if self.diverged and eng is not None and eng.detect:
            raise DivergenceError(
                "FastILU Jacobi sweeps diverged: per-sweep update norms "
                + ", ".join(f"{x:.3e}" for x in self.update_norms),
                norms=self.update_norms,
                solver="fastilu",
            )

        self.l = CsrMatrix(sym.l_indptr, sym.l_indices, l_vals, (n, n))
        self.u = CsrMatrix(sym.u_indptr, sym.u_indices, u_vals, (n, n))

        self.numeric_profile = KernelProfile()
        work = float(2 * sym.masked_pairs + 4 * pind.size)
        for _ in range(max(self.sweeps, 1)):
            # flop-dominated fused kernel: the intersection gathers hit
            # cache (each L/U value is reused across many dot products),
            # so memory traffic is a few passes over the pattern
            self.numeric_profile.add(
                "factor.fastilu_sweep",
                flops=work,
                bytes=float(sym.masked_pairs * 4 + pind.size * 48),
                parallelism=float(pind.size),
            )
        return self

    # ------------------------------------------------------------------
    def _run_sweeps(self, a_l, a_u, l_vals, u_vals, eng):
        """The Jacobi sweep loop.

        One sweep is two flat gathers, one segmented reduction, one
        scatter and the damped elementwise update -- the fused-kernel
        shape.
        """
        sym = self.symbolic_record
        l_cols = sym.l_indices
        n_seg = sym.seg_starts.size
        w = self.damping
        for sweep in range(self.sweeps):
            prods = l_vals[sym.gather_l] * u_vals[sym.gather_u]
            sums = np.add.reduceat(prods, sym.seg_starts) if n_seg else np.zeros(0)
            # scatter segment sums to S entries (every segment is inside S)
            c = np.zeros(sym.pind.size)
            c[sym.seg_targets] = sums
            c_l = c[sym.lower_idx]
            c_u = c[sym.upper_idx]
            u_diag = u_vals[sym.diag_pos]
            if np.any(u_diag == 0):
                bad = int(np.flatnonzero(u_diag == 0)[0])
                raise PivotBreakdownError(
                    f"zero pivot during FastILU sweep at row {bad}",
                    index=bad,
                    value=0.0,
                    solver="fastilu",
                )
            # damped Jacobi update from the *previous* iterate; the
            # undamped synchronous iteration can diverge on stiff
            # elasticity blocks (the asynchronous GPU implementation
            # behaves between Jacobi and Gauss-Seidel; damping is the
            # FastILU knob listed in the paper's Table I)
            # L: subtract the k=j term (included in the masked product)
            ud_l = u_diag[l_cols]
            new_l = (a_l - (c_l - l_vals * ud_l)) / ud_l
            new_u = a_u - c_u
            prev_l, prev_u = l_vals, u_vals
            l_vals = (1.0 - w) * l_vals + w * new_l
            u_vals = (1.0 - w) * u_vals + w * new_u
            # divergence monitor: the damped update magnitude contracts
            # for a converging iteration and grows geometrically on the
            # stiff blocks where the synchronous sweeps diverge
            self.update_norms.append(
                float(np.linalg.norm(l_vals - prev_l))
                + float(np.linalg.norm(u_vals - prev_u))
            )
            if eng is not None:
                # fault injection (fastilu_divergence): amplify iterates
                l_vals, u_vals = eng.fastilu_perturb(sweep, l_vals, u_vals)
        return l_vals, u_vals

    # ------------------------------------------------------------------
    def residual_norm(self, a: CsrMatrix) -> float:
        """Frobenius norm of ``(A - L U)`` restricted to the pattern.

        The convergence functional of the Chow--Patel iteration; used by
        the tests to verify sweeps improve the factorization.
        """
        sym = self.symbolic_record
        a_vals = _scatter_to_pattern(permute(a, self.perm), sym.pptr, sym.pind)
        a_vals = a_vals * self.row_scale[sym.rows_all] * self.row_scale[sym.pind]
        prods = self.l.data[sym.gather_l] * self.u.data[sym.gather_u]
        # (L U)_ij on the pattern, L strict: the masked product ...
        lu = np.zeros(sym.pind.size, dtype=np.float64)
        if sym.seg_starts.size:
            lu[sym.seg_targets] = np.add.reduceat(prods, sym.seg_starts)
        # ... plus the I*U term of (I + L) U: u_ij itself on the upper
        # entries, nothing below the diagonal
        lu[sym.upper_idx] += self.u.data
        return float(np.linalg.norm(a_vals - lu))
