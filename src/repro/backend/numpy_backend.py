"""The default (bit-identity) numpy backend.

Every method is the *literal* numpy expression the kernels inlined
before the refactor: ``segment_sum`` is ``np.add.reduceat``,
``scatter_add`` is ``np.bincount``, ``solve_triangular`` is the same
``scipy.linalg.solve_triangular`` call (``check_finite=False``) the
supernodal solver issued directly.  Routing a kernel through this
backend therefore cannot change its floating-point result -- the
bit-identity contract the backend-parametrized test suite pins down.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backend.base import Backend, normalize_shape

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """Array backend over plain numpy (the package default)."""

    name = "numpy"

    # ------------------------------------------------------------------
    def owns(self, x: Any) -> bool:
        """True for ndarrays and numpy scalars."""
        return isinstance(x, (np.ndarray, np.generic))

    def asarray(self, x: Any, dtype: Any = None) -> np.ndarray:
        """``np.asarray`` (no copy when already conforming)."""
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        """Identity (modulo ``asarray``) on the host backend."""
        return np.asarray(x)

    # ------------------------------------------------------------------
    def zeros(self, shape, dtype: Any = None) -> np.ndarray:
        """``np.zeros``."""
        return np.zeros(normalize_shape(shape), dtype=dtype or np.float64)

    def empty(self, shape, dtype: Any = None) -> np.ndarray:
        """``np.empty``."""
        return np.empty(normalize_shape(shape), dtype=dtype or np.float64)

    def ones(self, shape, dtype: Any = None) -> np.ndarray:
        """``np.ones``."""
        return np.ones(normalize_shape(shape), dtype=dtype or np.float64)

    def arange(self, n: int, dtype: Any = None) -> np.ndarray:
        """``np.arange``."""
        return np.arange(n, dtype=dtype or np.int64)

    def copy(self, x: Any) -> np.ndarray:
        """``np.array(x, copy=True)``."""
        return np.array(x, copy=True)

    # ------------------------------------------------------------------
    def take(self, x: Any, idx: np.ndarray, axis: int = 0) -> np.ndarray:
        """Fancy-index gather ``x[idx]`` (axis 0) / ``x[:, idx]``."""
        if axis == 0:
            return x[idx]
        return x.take(idx, axis=axis)

    def put(self, x: Any, idx: np.ndarray, values: Any, axis: int = 0) -> None:
        """``x[idx] = values`` (axis 0) / ``x[:, idx] = values``."""
        if axis == 0:
            x[idx] = values
        else:
            x[:, idx] = values

    def repeat(self, x: Any, counts: Any) -> np.ndarray:
        """``np.repeat``."""
        return np.repeat(x, counts)

    def concatenate(self, parts: Sequence[Any], axis: int = 0) -> np.ndarray:
        """``np.concatenate``."""
        return np.concatenate(parts, axis=axis)

    def stack(self, parts: Sequence[Any], axis: int = 0) -> np.ndarray:
        """``np.stack``."""
        return np.stack(parts, axis=axis)

    def argsort(self, x: Any, stable: bool = True) -> np.ndarray:
        """``np.argsort`` (stable kind by default)."""
        return np.argsort(x, kind="stable" if stable else None)

    # ------------------------------------------------------------------
    def segment_sum(self, values: Any, starts: np.ndarray, axis: int = 0) -> np.ndarray:
        """``np.add.reduceat`` -- fixed association, hence bit-identity."""
        return np.add.reduceat(values, starts, axis=axis)

    def scatter_add(self, idx: np.ndarray, values: Any, size: int) -> np.ndarray:
        """``np.bincount`` accumulation (sequential in input order)."""
        return np.bincount(idx, weights=values, minlength=size)

    def scatter_add_into(self, out: np.ndarray, idx: np.ndarray, values: Any) -> None:
        """``np.add.at`` (unbuffered, dtype-preserving)."""
        np.add.at(out, idx, values)

    def dot(self, x: Any, y: Any) -> Any:
        """``x @ y``."""
        return x @ y

    def norm(self, x: Any) -> float:
        """``np.linalg.norm`` as a host float."""
        return float(np.linalg.norm(x))

    def all_finite(self, x: Any) -> bool:
        """``np.all(np.isfinite(x))``."""
        return bool(np.all(np.isfinite(x)))

    # ------------------------------------------------------------------
    def gemv(self, a: Any, x: Any) -> np.ndarray:
        """Dense ``a @ x`` through BLAS."""
        return a @ x

    def batched_matmul(self, a: Any, b: Any) -> np.ndarray:
        """``np.matmul`` over the stacked operands."""
        return np.matmul(a, b)

    def solve_triangular(
        self,
        a: Any,
        b: Any,
        lower: bool = True,
        unit_diagonal: bool = False,
    ) -> np.ndarray:
        """``scipy.linalg.solve_triangular`` without the finite check."""
        from scipy.linalg import solve_triangular

        return solve_triangular(
            a, b, lower=lower, unit_diagonal=unit_diagonal,
            check_finite=False,
        )

    # ------------------------------------------------------------------
    def result_type(self, *operands: Any) -> np.dtype:
        """``np.result_type``."""
        return np.result_type(*operands)

    def astype(self, x: Any, dtype: Any) -> np.ndarray:
        """``ndarray.astype`` (no copy when already conforming)."""
        return np.asarray(x).astype(dtype, copy=False)

    def dtype_of(self, x: Any) -> np.dtype:
        """``x.dtype``."""
        return np.asarray(x).dtype
