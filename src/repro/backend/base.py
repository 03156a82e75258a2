"""The array-backend protocol of the numeric core.

The paper's central observation is that the whole two-level Schwarz
algorithm runs on GPUs once its hot kernels -- SpMV, level-set and
supernodal SpTRSV, the FastILU sweeps, the Schwarz scatter/gather and
the Arnoldi vector operations -- are expressed as *array operations*.
This module defines the thin array-API surface those kernels are
written against.  :class:`~repro.backend.numpy_backend.NumpyBackend`
is the default implementation (bit-identical to the pre-refactor
kernels: every method is the exact numpy expression the kernels used
to inline) and the only one shipped; another array library plugs in by
subclassing :class:`Backend` (tolerance contract in docs/performance.md).

The surface is deliberately small: array creation, the gather /
segmented-reduction pair that is the numpy analogue of a row-parallel
CSR kernel, the scatter-accumulate of the Schwarz prolongation, dense
triangular solves + GEMV for the supernodal blocks, and dtype helpers.
Structure arrays (``indptr``/``indices``/level schedules) are host
metadata and stay plain numpy on every backend -- only *values* move.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence, Tuple

import numpy as np

__all__ = ["Backend"]


class Backend(abc.ABC):
    """Abstract array backend.

    Implementations provide a consistent namespace of array operations
    over one array library.  The contract every implementation carries:

    * :attr:`name` identifies the backend (``"numpy"``).
    * ``owns(x)`` is True when ``x`` is this backend's native array
      type.
    * The numpy backend is **bit-identical** to direct numpy code: each
      method is the literal numpy expression, so routing a kernel
      through the shim cannot change its floating-point result.
    * Non-numpy backends promise the same *semantics* at documented
      tolerance (segmented sums may reassociate on the device).
    """

    #: backend identifier, e.g. ``"numpy"``
    name: str = "abstract"

    # ------------------------------------------------------------------
    # identity / interop
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def owns(self, x: Any) -> bool:
        """True when ``x`` is a native array of this backend."""

    @abc.abstractmethod
    def asarray(self, x: Any, dtype: Any = None) -> Any:
        """Convert ``x`` (any array-like) to this backend's array type."""

    @abc.abstractmethod
    def to_numpy(self, x: Any) -> np.ndarray:
        """Materialize a backend array as a host numpy ndarray."""

    @property
    def is_numpy(self) -> bool:
        """True for the (bit-identity) numpy backend."""
        return self.name == "numpy"

    # ------------------------------------------------------------------
    # array creation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def zeros(self, shape, dtype: Any = None) -> Any:
        """Zero-filled array."""

    @abc.abstractmethod
    def empty(self, shape, dtype: Any = None) -> Any:
        """Uninitialized array."""

    @abc.abstractmethod
    def ones(self, shape, dtype: Any = None) -> Any:
        """One-filled array."""

    @abc.abstractmethod
    def arange(self, n: int, dtype: Any = None) -> Any:
        """``0..n-1``."""

    @abc.abstractmethod
    def copy(self, x: Any) -> Any:
        """Deep copy of an array."""

    # ------------------------------------------------------------------
    # structure ops (gather / repeat / ordering)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def take(self, x: Any, idx: np.ndarray, axis: int = 0) -> Any:
        """Gather ``x[idx]`` (``idx`` is host int64 structure)."""

    @abc.abstractmethod
    def put(self, x: Any, idx: np.ndarray, values: Any, axis: int = 0) -> None:
        """In-place scatter-assign ``x[idx] = values`` (last write wins);
        ``axis=1`` assigns ``x[:, idx] = values``, the mirror of
        :meth:`take` along that axis."""

    @abc.abstractmethod
    def repeat(self, x: Any, counts: Any) -> Any:
        """Element-wise repetition (``np.repeat`` semantics)."""

    @abc.abstractmethod
    def concatenate(self, parts: Sequence[Any], axis: int = 0) -> Any:
        """Concatenate along ``axis``."""

    @abc.abstractmethod
    def stack(self, parts: Sequence[Any], axis: int = 0) -> Any:
        """Stack along a new axis."""

    @abc.abstractmethod
    def argsort(self, x: Any, stable: bool = True) -> Any:
        """Sorting permutation (stable by default -- the kernels rely on
        stability for deterministic segment formation)."""

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def segment_sum(self, values: Any, starts: np.ndarray, axis: int = 0) -> Any:
        """Sum of the segments ``values[starts[i]:starts[i+1]]``.

        ``np.add.reduceat`` semantics over *non-empty* segments: callers
        pass ``starts`` filtered to segment heads with at least one
        element (the SpMV/SpTRSV kernels precompute that plan from the
        host structure).  On the numpy backend this IS
        ``np.add.reduceat`` -- fixed left-to-right association, hence
        bit-identity; devices may reassociate (documented tolerance).
        """

    @abc.abstractmethod
    def scatter_add(self, idx: np.ndarray, values: Any, size: int) -> Any:
        """Dense accumulation ``out[idx[k]] += values[k]`` over a fresh
        zero vector of length ``size`` (``np.bincount`` semantics: the
        accumulation order is the input order; the result is float64)."""

    @abc.abstractmethod
    def scatter_add_into(self, out: Any, idx: np.ndarray, values: Any) -> None:
        """In-place accumulation ``out[idx[k]] += values[k]``
        (``np.add.at`` semantics: unbuffered, dtype-preserving)."""

    @abc.abstractmethod
    def dot(self, x: Any, y: Any) -> Any:
        """Inner product ``x @ y`` (vector-vector)."""

    @abc.abstractmethod
    def norm(self, x: Any) -> float:
        """Euclidean norm as a host float."""

    @abc.abstractmethod
    def all_finite(self, x: Any) -> bool:
        """True when every element is finite (host bool)."""

    # ------------------------------------------------------------------
    # dense linear algebra (supernodal blocks, Arnoldi projections)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def gemv(self, a: Any, x: Any) -> Any:
        """Dense ``A @ x`` (also covers matrix-matrix: ``A @ X``)."""

    @abc.abstractmethod
    def batched_matmul(self, a: Any, b: Any) -> Any:
        """Stacked dense product ``a @ b`` over broadcast leading axes.

        The supernodal SpTRSV kernel: one call multiplies every
        same-shape supernode block ``(g, m, w)`` of a level with its
        gathered vector slices ``(k, g, w, 1)``.  On the numpy backend
        every batch entry goes through the same BLAS routine whatever
        ``g`` and ``k`` are, so an entry's bits depend only on its own
        operands -- the contract behind the merged-equals-per-subdomain
        and block-equals-single-column pins."""

    @abc.abstractmethod
    def solve_triangular(
        self,
        a: Any,
        b: Any,
        lower: bool = True,
        unit_diagonal: bool = False,
    ) -> Any:
        """Dense triangular solve ``a x = b`` (delegates to LAPACK /
        cuBLAS-analogue)."""

    # ------------------------------------------------------------------
    # dtype helpers
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def result_type(self, *operands: Any) -> np.dtype:
        """Promoted numpy dtype of the operands (dtypes or arrays).

        All backends speak numpy dtypes at the interface; non-numpy
        backends translate internally.  This is the single promotion
        rule the kernels use, so the ``matvec``/``matmat`` fixed paths
        promote identically on every backend.
        """

    @abc.abstractmethod
    def astype(self, x: Any, dtype: Any) -> Any:
        """Cast ``x`` to ``dtype`` (numpy dtype spelling)."""

    @abc.abstractmethod
    def dtype_of(self, x: Any) -> np.dtype:
        """The numpy dtype corresponding to ``x``'s element type."""

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary used by traces and the bench report."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} ({self.name})>"


def check_out_dtype(
    out_dtype: np.dtype, result_dtype: np.dtype, kernel: str
) -> None:
    """Reject an ``out=`` buffer that would silently truncate.

    The pre-refactor SpMV wrote ``out[nonempty] = np.add.reduceat(...)``,
    which silently downcasts when the product promotes past the buffer
    dtype (float32 ``out`` against a float64 product on the
    half-precision operator path).  Kernels now compute in the promoted
    dtype and require the buffer to hold it losslessly.
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


def normalize_shape(shape) -> Tuple[int, ...]:
    """Accept ``int`` or tuple shapes uniformly (helper for backends)."""
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)
