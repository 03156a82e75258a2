"""Compressed-sparse-row (CSR) matrices.

The central storage format of the package.  The structure arrays
(``indptr``/``indices``) are pattern-only and never mutated; the value
kernels (SpMV, SpMM, transpose product) are vectorised numpy gathers
and segmented reductions over them.  The class is deliberately small
and explicit -- the factorizations, triangular solves and Schwarz
operators are built on top of it rather than hidden inside it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["CsrMatrix", "eye", "diags"]


def _check_shape(kernel: str, a_shape, what: str, shape, expected) -> None:
    """Reject a mis-sized operand or ``out=`` buffer of a CSR kernel.

    Without it a long operand is silently truncated by the column
    gather and a short one fails deep inside it with a bare
    ``IndexError``.
    """
    if shape != expected:
        raise ValueError(
            f"CsrMatrix.{kernel}: {what} shape {shape} does not fit the "
            f"{a_shape[0]}x{a_shape[1]} matrix (expected {expected})"
        )


def _check_out_dtype(out_dtype: np.dtype, result_dtype: np.dtype, kernel: str) -> None:
    """Reject an ``out=`` buffer that would silently truncate.

    Writing ``out[nonempty] = np.add.reduceat(...)`` silently downcasts
    when the product promotes past the buffer dtype (a float32 ``out``
    against a float64 product on the half-precision operator path), so
    the buffer must hold the promoted dtype losslessly.
    """
    if out_dtype == result_dtype:
        return
    if np.can_cast(result_dtype, out_dtype, casting="safe"):
        return
    raise TypeError(
        f"{kernel}: out buffer dtype {out_dtype} cannot hold the "
        f"promoted result dtype {result_dtype} without truncation; "
        f"pass an out buffer of dtype {result_dtype} or cast the "
        "result explicitly"
    )


class CsrMatrix:
    """A sparse matrix in compressed-sparse-row format.

    Parameters
    ----------
    indptr:
        ``(n_rows + 1,)`` int64 row-pointer array.
    indices:
        ``(nnz,)`` int64 column indices; sorted within each row.
    data:
        ``(nnz,)`` value array (float32 or float64).
    shape:
        ``(n_rows, n_cols)``.

    Notes
    -----
    Rows are kept with sorted column indices; constructors enforce this.
    The invariant is relied upon by the binary-merge kernels (SpAdd, the
    ILU symbolic phase) and by :meth:`sorted_index_of`.
    """

    __slots__ = (
        "indptr", "indices", "data", "shape",
        "_rows_cache", "_spmv_plan", "_diag_plan",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        self.shape = (int(shape[0]), int(shape[1]))
        # structure-derived plans, built on first use (the structure
        # arrays are never mutated in place, so the plans stay valid
        # for the object's lifetime; see expanded_rows)
        self._rows_cache: Optional[np.ndarray] = None
        self._spmv_plan: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._diag_plan: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if self.indptr.ndim != 1 or self.indptr.size != self.shape[0] + 1:
            raise ValueError("indptr must have length n_rows + 1")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have identical length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("inconsistent indptr")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CsrMatrix":
        """Build from triplets, summing duplicates."""
        from repro.sparse.coo import coalesce

        r, c, v = coalesce(rows, cols, vals, shape)
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, r + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, c, v, shape)

    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float = 0.0) -> "CsrMatrix":
        """Build from a dense array, dropping entries with ``|a| <= tol``."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        mask = np.abs(a) > tol
        rows, cols = np.nonzero(mask)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def from_scipy(cls, a) -> "CsrMatrix":
        """Convert from a ``scipy.sparse`` matrix (test-oracle interop)."""
        a = a.tocsr()
        a.sort_indices()
        a.sum_duplicates()
        return cls(
            a.indptr.astype(np.int64),
            a.indices.astype(np.int64),
            a.data.copy(),
            a.shape,
        )

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (test-oracle interop)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def dtype(self) -> np.dtype:
        """Value dtype."""
        return self.data.dtype

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns."""
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts."""
        return np.diff(self.indptr)

    def expanded_rows(self) -> np.ndarray:
        """The row index of every stored entry (COO row expansion).

        Cached: the pre-refactor kernels rebuilt
        ``np.repeat(arange(n_rows), row_nnz())`` on every
        ``diagonal()``/``todense()``/``rmatvec()`` call, which made
        per-iteration diagonal extraction (FastILU/Jacobi setup over a
        solve sequence) quadratic in solve count.  Treat as read-only.
        """
        if self._rows_cache is None:
            self._rows_cache = np.repeat(
                np.arange(self.n_rows, dtype=np.int64), self.row_nnz()
            )
        return self._rows_cache

    def _spmv_segments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(nonempty_rows, segment_starts)`` SpMV plan."""
        if self._spmv_plan is None:
            nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
            self._spmv_plan = (nonempty, self.indptr[nonempty])
        return self._spmv_plan

    def _diag_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(rows_with_diag, entry_positions)`` diagonal plan."""
        if self._diag_plan is None:
            n = min(self.shape)
            rows = self.expanded_rows()
            mask = rows == self.indices
            entry_pos = np.flatnonzero(mask)
            out_rows = rows[entry_pos]
            sel = out_rows < n
            self._diag_plan = (out_rows[sel], entry_pos[sel])
        return self._diag_plan

    def copy(self) -> "CsrMatrix":
        """Deep copy."""
        return CsrMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape
        )

    def astype(self, dtype) -> "CsrMatrix":
        """Copy with values cast to ``dtype`` (used by the half-precision path)."""
        return CsrMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            self.data.astype(dtype),
            self.shape,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CsrMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.dtype})"
        )

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` (views, do not mutate)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def diagonal(self) -> np.ndarray:
        """Main-diagonal values (zeros where the diagonal is not stored).

        A cached structure plan makes repeated extraction (per-iteration
        Jacobi/FastILU setup) a single gather instead of a full COO
        re-expansion per call.
        """
        out = np.zeros(min(self.shape), dtype=self.dtype)
        out_rows, entry_pos = self._diag_positions()
        out[out_rows] = self.data[entry_pos]
        return out

    def todense(self) -> np.ndarray:
        """Materialize as a dense ndarray."""
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.expanded_rows(), self.indices] = self.data
        return out

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Sparse matrix--vector product ``A @ x``.

        A gather followed by a segmented reduction -- the numpy
        analogue of the row-parallel CSR SpMV kernel.

        The product is computed and returned in the promoted dtype
        ``result_type(A.dtype, x.dtype)``.  An ``out=`` buffer that
        cannot hold that dtype losslessly raises ``TypeError`` instead
        of silently truncating (the float32-buffer downcast bug of the
        half-precision operator path); an ``x`` that is not
        ``(n_cols,)`` or an ``out`` that is not ``(n_rows,)`` raises
        ``ValueError``.
        """
        x = np.asarray(x)
        _check_shape("matvec", self.shape, "operand", x.shape, (self.n_cols,))
        result_dtype = np.result_type(self.dtype, x)
        if out is not None:
            _check_shape("matvec", self.shape, "out", np.shape(out), (self.n_rows,))
            _check_out_dtype(out.dtype, result_dtype, "CsrMatrix.matvec")
        acc = (self.data * x[self.indices]).astype(result_dtype, copy=False)
        if out is None:
            out = np.zeros(self.n_rows, dtype=result_dtype)
        else:
            out[:] = 0
        if self.nnz == 0:
            return out
        nonempty, starts = self._spmv_segments()
        if nonempty.size:
            out[nonempty] = np.add.reduceat(acc, starts)
        return out

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix--dense matrix product ``A @ X`` for 2-D ``X``.

        Returns the promoted dtype ``result_type(A.dtype, X.dtype)``
        regardless of the stored-entry count; the pre-fix kernel read
        the dtype off an empty product array, which yields float64 for
        a zero-nnz matrix whatever the operand dtypes -- the block
        GMRES/CG deflated-shard inconsistency with :meth:`matvec`.
        """
        x = np.asarray(x)
        if x.ndim == 1:
            return self.matvec(x)
        _check_shape(
            "matmat", self.shape, "operand", x.shape, (self.n_cols,) + x.shape[1:2]
        )
        result_dtype = np.result_type(self.dtype, x)
        prods = self.data[:, None] * x[self.indices]
        out = np.zeros((self.n_rows, x.shape[1]), dtype=result_dtype)
        nonempty, starts = self._spmv_segments()
        if nonempty.size:
            out[nonempty] = np.add.reduceat(
                prods.astype(result_dtype, copy=False), starts, axis=0
            )
        return out

    def __matmul__(self, other):
        if isinstance(other, CsrMatrix):
            from repro.sparse.spgemm import spgemm

            return spgemm(self, other)
        return self.matmat(other)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transpose product ``A.T @ y`` without forming the transpose.

        A 2-D ``y`` is a block of columns, accumulated one column at a
        time (``np.add.at`` on a vector), so column ``j`` of the result
        equals ``rmatvec(y[:, j])`` bit for bit.
        """
        y = np.asarray(y)
        _check_shape(
            "rmatvec", self.shape, "operand", y.shape, (self.n_rows,) + y.shape[1:2]
        )
        result_dtype = np.result_type(self.dtype, y)
        if y.ndim == 2:
            out = np.zeros((self.n_cols, y.shape[1]), dtype=result_dtype)
            for j in range(y.shape[1]):
                out[:, j] = self.rmatvec(y[:, j])
            return out
        out = np.zeros(self.n_cols, dtype=result_dtype)
        np.add.at(out, self.indices, self.data * y[self.expanded_rows()])
        return out

    def transpose(self) -> "CsrMatrix":
        """Explicit transpose (counting-sort based, O(nnz))."""
        n_rows, n_cols = self.shape
        indptr_t = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(indptr_t, self.indices + 1, 1)
        np.cumsum(indptr_t, out=indptr_t)
        order = np.argsort(self.indices, kind="stable")
        return CsrMatrix(
            indptr_t, self.expanded_rows()[order], self.data[order],
            (n_cols, n_rows),
        )

    @property
    def T(self) -> "CsrMatrix":
        """Alias for :meth:`transpose`."""
        return self.transpose()

    def scale_rows(self, d: np.ndarray) -> "CsrMatrix":
        """Return ``diag(d) @ A``."""
        d = np.asarray(d)
        if d.size != self.n_rows:
            raise ValueError("scaling vector length mismatch")
        data = self.data * np.repeat(d, self.row_nnz())
        return CsrMatrix(self.indptr.copy(), self.indices.copy(), data, self.shape)

    def scale_cols(self, d: np.ndarray) -> "CsrMatrix":
        """Return ``A @ diag(d)``."""
        d = np.asarray(d)
        if d.size != self.n_cols:
            raise ValueError("scaling vector length mismatch")
        return CsrMatrix(
            self.indptr.copy(), self.indices.copy(), self.data * d[self.indices], self.shape
        )

    def __mul__(self, alpha: float) -> "CsrMatrix":
        return CsrMatrix(
            self.indptr.copy(), self.indices.copy(), self.data * alpha, self.shape
        )

    __rmul__ = __mul__

    def __add__(self, other: "CsrMatrix") -> "CsrMatrix":
        from repro.sparse.spadd import spadd

        return spadd(self, other)

    def __sub__(self, other: "CsrMatrix") -> "CsrMatrix":
        from repro.sparse.spadd import spadd

        return spadd(self, other, beta=-1.0)

    # ------------------------------------------------------------------
    # structure utilities
    # ------------------------------------------------------------------
    def eliminate_zeros(self, tol: float = 0.0) -> "CsrMatrix":
        """Drop stored entries with ``|a_ij| <= tol``."""
        keep = np.abs(self.data) > tol
        rows = self.expanded_rows()
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows[keep] + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CsrMatrix(indptr, self.indices[keep], self.data[keep], self.shape)

    def pattern(self) -> "CsrMatrix":
        """Structure-only copy with all stored values set to one."""
        return CsrMatrix(
            self.indptr.copy(),
            self.indices.copy(),
            np.ones(self.nnz, dtype=self.dtype),
            self.shape,
        )

    def is_sorted(self) -> bool:
        """True when every row's column indices are strictly increasing."""
        if self.nnz < 2:
            return True
        d = np.diff(self.indices)
        row_start = self.indptr[1:-1]
        interior = np.ones(self.nnz - 1, dtype=bool)
        interior[row_start[(row_start > 0) & (row_start < self.nnz)] - 1] = False
        return bool(np.all(d[interior] > 0))

    def norm_fro(self) -> float:
        """Frobenius norm of the stored values."""
        return float(np.sqrt(np.sum(np.abs(self.data) ** 2)))

    def bandwidth(self) -> int:
        """Maximum ``|i - j|`` over stored entries (0 for empty matrices)."""
        if self.nnz == 0:
            return 0
        return int(np.max(np.abs(self.expanded_rows() - self.indices)))


def eye(n: int, dtype=np.float64) -> CsrMatrix:
    """The n-by-n identity in CSR form."""
    idx = np.arange(n, dtype=np.int64)
    return CsrMatrix(
        np.arange(n + 1, dtype=np.int64), idx, np.ones(n, dtype=dtype), (n, n)
    )


def diags(d: np.ndarray) -> CsrMatrix:
    """A diagonal matrix from a vector (zeros are kept as stored entries)."""
    d = np.asarray(d)
    n = d.size
    idx = np.arange(n, dtype=np.int64)
    return CsrMatrix(np.arange(n + 1, dtype=np.int64), idx, d.copy(), (n, n))
