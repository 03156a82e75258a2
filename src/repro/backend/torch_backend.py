"""Torch array backend (activates when ``torch`` is importable).

Maps the :class:`~repro.backend.base.Backend` surface onto
``torch.Tensor`` operations -- the same structure the exemplar repos
use for their GPU paths (``apply_gpu`` with torch local solves; the
single-GPU ``dd-solvers`` PyTorch package).  Device placement follows
the constructor argument; structure arrays arrive as host numpy int64
and are converted per call (kernels keep structure on the host by
contract, so only value arrays live on the device).

Numerical contract: *semantic* parity with the numpy backend at
documented tolerance, not bit-identity -- ``segment_sum`` lowers onto
``index_add`` whose accumulation order is unspecified on the device
(see docs/performance.md).  The skipped-if-no-torch parity suite pins
the tolerance.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.backend.base import Backend, normalize_shape

__all__ = ["TorchBackend", "torch_available"]

try:  # torch is an optional dependency; never a hard import
    import torch as _torch
except Exception:  # pragma: no cover - exercised only without torch
    _torch = None


def torch_available() -> bool:
    """True when the torch backend can activate."""
    return _torch is not None


class TorchBackend(Backend):
    """Array backend over ``torch.Tensor`` (optional, GPU-capable).

    Parameters
    ----------
    device:
        Torch device string (``"cpu"``, ``"cuda"``, ``"cuda:1"`` ...);
        default ``"cuda"`` when available, else ``"cpu"``.
    """

    name = "torch"

    def __init__(self, device: Optional[str] = None) -> None:
        if _torch is None:
            raise ImportError(
                "the torch backend requires torch; install it or use the "
                "default numpy backend"
            )
        if device is None:
            device = "cuda" if _torch.cuda.is_available() else "cpu"
        self.device = _torch.device(device)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Backend name plus device, e.g. ``"torch[cuda]"``."""
        return f"torch[{self.device.type}]"

    def _dtype(self, dtype: Any):
        """Translate a numpy dtype spelling to the torch dtype."""
        if dtype is None:
            return None
        if isinstance(dtype, _torch.dtype):
            return dtype
        mapping = {
            np.dtype(np.float64): _torch.float64,
            np.dtype(np.float32): _torch.float32,
            np.dtype(np.float16): _torch.float16,
            np.dtype(np.int64): _torch.int64,
            np.dtype(np.int32): _torch.int32,
            np.dtype(np.bool_): _torch.bool,
        }
        key = np.dtype(dtype)
        if key not in mapping:
            raise TypeError(f"no torch dtype for {key}")
        return mapping[key]

    # ------------------------------------------------------------------
    def owns(self, x: Any) -> bool:
        """True for ``torch.Tensor``."""
        return isinstance(x, _torch.Tensor)

    def asarray(self, x: Any, dtype: Any = None):
        """``torch.as_tensor`` onto the backend device."""
        return _torch.as_tensor(
            x, dtype=self._dtype(dtype), device=self.device
        )

    def to_numpy(self, x: Any) -> np.ndarray:
        """Detach + host transfer."""
        if isinstance(x, _torch.Tensor):
            return x.detach().cpu().numpy()
        return np.asarray(x)

    # ------------------------------------------------------------------
    def zeros(self, shape, dtype: Any = None):
        """``torch.zeros`` on the device."""
        return _torch.zeros(
            normalize_shape(shape),
            dtype=self._dtype(dtype) or _torch.float64,
            device=self.device,
        )

    def empty(self, shape, dtype: Any = None):
        """``torch.empty`` on the device."""
        return _torch.empty(
            normalize_shape(shape),
            dtype=self._dtype(dtype) or _torch.float64,
            device=self.device,
        )

    def ones(self, shape, dtype: Any = None):
        """``torch.ones`` on the device."""
        return _torch.ones(
            normalize_shape(shape),
            dtype=self._dtype(dtype) or _torch.float64,
            device=self.device,
        )

    def arange(self, n: int, dtype: Any = None):
        """``torch.arange`` on the device."""
        return _torch.arange(
            n, dtype=self._dtype(dtype) or _torch.int64, device=self.device
        )

    def copy(self, x: Any):
        """``tensor.clone()``."""
        return self.asarray(x).clone()

    # ------------------------------------------------------------------
    def take(self, x: Any, idx: np.ndarray, axis: int = 0):
        """``index_select`` with host structure indices."""
        t = self.asarray(x)
        return _torch.index_select(t, axis, self.asarray(idx, np.int64))

    def put(self, x: Any, idx: np.ndarray, values: Any, axis: int = 0) -> None:
        """``x[idx] = values`` (axis 0) / ``x[:, idx] = values``."""
        if axis == 0:
            x[self.asarray(idx, np.int64)] = self.asarray(values)
        else:
            x[:, self.asarray(idx, np.int64)] = self.asarray(values)

    def repeat(self, x: Any, counts: Any):
        """``torch.repeat_interleave``."""
        return _torch.repeat_interleave(
            self.asarray(x), self.asarray(counts, np.int64)
        )

    def concatenate(self, parts: Sequence[Any], axis: int = 0):
        """``torch.cat``."""
        return _torch.cat([self.asarray(p) for p in parts], dim=axis)

    def stack(self, parts: Sequence[Any], axis: int = 0):
        """``torch.stack``."""
        return _torch.stack([self.asarray(p) for p in parts], dim=axis)

    def argsort(self, x: Any, stable: bool = True):
        """``torch.argsort`` (stable by default, as the kernels need)."""
        return _torch.argsort(self.asarray(x), stable=stable)

    # ------------------------------------------------------------------
    def segment_sum(self, values: Any, starts: np.ndarray, axis: int = 0):
        """Segmented sum via ``index_add`` over segment ids.

        ``starts`` are the heads of the non-empty segments (reduceat
        plan); segment lengths are recovered from consecutive starts.
        Accumulation order on the device is unspecified: parity with
        numpy holds to rounding, not bit-for-bit.
        """
        values = self.asarray(values)
        n_total = values.shape[axis]
        starts_np = np.asarray(starts, dtype=np.int64)
        lengths = np.diff(np.append(starts_np, n_total))
        seg_ids = self.asarray(
            np.repeat(np.arange(starts_np.size, dtype=np.int64), lengths)
        )
        out_shape = list(values.shape)
        out_shape[axis] = starts_np.size
        out = _torch.zeros(
            out_shape, dtype=values.dtype, device=self.device
        )
        return out.index_add_(axis, seg_ids, values)

    def scatter_add(self, idx: np.ndarray, values: Any, size: int):
        """``index_add`` accumulation onto a fresh zero vector."""
        values = self.asarray(values)
        out = _torch.zeros(size, dtype=values.dtype, device=self.device)
        return out.index_add_(0, self.asarray(idx, np.int64), values)

    def scatter_add_into(self, out: Any, idx: np.ndarray, values: Any) -> None:
        """In-place ``index_add_``."""
        out.index_add_(0, self.asarray(idx, np.int64), self.asarray(values))

    def dot(self, x: Any, y: Any):
        """``x @ y``."""
        return self.asarray(x) @ self.asarray(y)

    def norm(self, x: Any) -> float:
        """``torch.linalg.vector_norm`` as a host float."""
        return float(_torch.linalg.vector_norm(self.asarray(x)))

    def all_finite(self, x: Any) -> bool:
        """``torch.all(torch.isfinite(x))``."""
        return bool(_torch.all(_torch.isfinite(self.asarray(x))))

    # ------------------------------------------------------------------
    def gemv(self, a: Any, x: Any):
        """Dense ``a @ x`` through the device BLAS."""
        return self.asarray(a) @ self.asarray(x)

    def batched_matmul(self, a: Any, b: Any):
        """``torch.matmul`` over the stacked operands."""
        return _torch.matmul(self.asarray(a), self.asarray(b))

    def solve_triangular(
        self,
        a: Any,
        b: Any,
        lower: bool = True,
        unit_diagonal: bool = False,
    ):
        """``torch.linalg.solve_triangular`` (2-D rhs internally)."""
        a = self.asarray(a)
        b = self.asarray(b)
        vec = b.ndim == 1
        if vec:
            b = b.unsqueeze(1)
        x = _torch.linalg.solve_triangular(
            a, b, upper=not lower, unitriangular=unit_diagonal
        )
        return x.squeeze(1) if vec else x

    # ------------------------------------------------------------------
    def result_type(self, *operands: Any) -> np.dtype:
        """Promotion computed in numpy dtype space (shared rule)."""
        np_ops = []
        for op in operands:
            if isinstance(op, _torch.Tensor):
                np_ops.append(np.empty(0, dtype=self.dtype_of(op)))
            else:
                np_ops.append(op)
        return np.result_type(*np_ops)

    def astype(self, x: Any, dtype: Any):
        """``tensor.to(dtype)``."""
        return self.asarray(x).to(self._dtype(dtype))

    def dtype_of(self, x: Any) -> np.dtype:
        """Torch dtype translated back to numpy."""
        reverse = {
            _torch.float64: np.dtype(np.float64),
            _torch.float32: np.dtype(np.float32),
            _torch.float16: np.dtype(np.float16),
            _torch.int64: np.dtype(np.int64),
            _torch.int32: np.dtype(np.int32),
            _torch.bool: np.dtype(np.bool_),
        }
        if isinstance(x, _torch.Tensor):
            if x.dtype not in reverse:
                raise TypeError(f"no numpy dtype for {x.dtype}")
            return reverse[x.dtype]
        return np.asarray(x).dtype
