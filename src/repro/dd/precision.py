"""Half-precision preconditioning (Section V-A.2).

Trilinos' ``HalfPrecisionOperator`` wraps a preconditioner built in half
the working precision: input vectors are type-cast down, the operator is
applied in the lower precision, and the result is cast back up.  GMRES
itself stays in double precision, so convergence to the double-precision
tolerance is retained while the (memory-bandwidth-bound) preconditioner
moves half the bytes -- the effect behind Tables VI/VII.

Substitution note (see DESIGN.md): rather than re-templating every
kernel on dtype, the wrapped preconditioner is built from a float32-
*rounded* copy of the matrix and its apply result is rounded to float32.
That reproduces the numerical behaviour (a preconditioner accurate to
single precision; iteration counts unchanged) and the cost model halves
the byte counts of every kernel profile.
"""

from __future__ import annotations


import numpy as np

from repro.dd.wrapper import OperatorWrapper, unwrap
from repro.machine.kernels import KernelProfile
from repro.obs import get_tracer
from repro.resilience.context import get_engine
from repro.resilience.detect import FloatOverflowError
from repro.sparse.csr import CsrMatrix

__all__ = ["HalfPrecisionOperator", "round_to_single", "single_precision_matrix"]

_F32_MAX = float(np.finfo(np.float32).max)
_F32_TINY = float(np.finfo(np.float32).tiny)


def round_to_single(values: np.ndarray, on_overflow: str = "raise") -> np.ndarray:
    """Round float64 values through float32 (precision emulation).

    Finite values beyond float32 range used to become silent ``inf``
    (poisoning the coarse solve); now they raise
    :class:`~repro.resilience.detect.FloatOverflowError`
    (``on_overflow="raise"``, the default), are clamped to the float32
    max with a ``precision_overflow_clamped`` trace counter
    (``"clamp"``), or are left as ``inf`` (``"ignore"``, the seed
    behavior).  Nonzero values flushed into the float32 subnormal range
    (or to zero) are counted as ``precision_subnormal_flush`` -- they
    lose relative accuracy but stay finite, so they never raise.
    """
    if on_overflow not in ("raise", "clamp", "ignore"):
        raise ValueError(
            f"unknown on_overflow policy {on_overflow!r}; valid values: "
            "'raise', 'clamp', 'ignore'"
        )
    arr = np.asarray(values, dtype=np.float64)
    out = arr.astype(np.float32)
    if on_overflow != "ignore":
        overflowed, n_over, max_abs = _cast_overflow(arr, out)
        if n_over:
            if on_overflow == "raise":
                raise FloatOverflowError(
                    f"float32 overflow in round_to_single: {n_over} finite "
                    f"values (max magnitude {max_abs:.3e}) exceed the "
                    f"float32 range ({_F32_MAX:.3e}); scale the system or "
                    f"use on_overflow='clamp'",
                    count=n_over,
                    max_abs=max_abs,
                    where="round_to_single",
                )
            np.copyto(
                out,
                (np.sign(arr) * _F32_MAX).astype(np.float32),
                where=overflowed,
            )
            get_tracer().count("precision_overflow_clamped", float(n_over))
        flushed = (np.abs(out) < _F32_TINY) & (arr != 0.0)
        n_flush = int(np.count_nonzero(flushed))
        if n_flush:
            get_tracer().count("precision_subnormal_flush", float(n_flush))
    return out.astype(np.float64)


def single_precision_matrix(a: CsrMatrix) -> CsrMatrix:
    """``a`` with its values rounded through float32 (same pattern).

    The matrix a half-precision preconditioner is built from and
    refactorized with; the one place a matrix is rounded.
    """
    return CsrMatrix(
        a.indptr.copy(), a.indices.copy(), round_to_single(a.data), a.shape
    )


def _cast_overflow(full: np.ndarray, cast: np.ndarray):
    """Finite values a float32 cast turned into inf: ``(mask, count,
    largest magnitude)``."""
    overflowed = np.isinf(cast) & np.isfinite(full)
    n_over = int(np.count_nonzero(overflowed))
    max_abs = float(np.max(np.abs(full[overflowed]))) if n_over else 0.0
    return overflowed, n_over, max_abs


class HalfPrecisionOperator(OperatorWrapper):
    """Apply a preconditioner in emulated single precision.

    Parameters
    ----------
    inner:
        A preconditioner object with ``apply`` and the per-rank profile
        methods of :class:`~repro.dd.two_level.GDSWPreconditioner`
        (already built from a float32-rounded matrix).

    The profile accessors return the inner profiles with byte counts
    halved, plus the explicit type-cast kernels of the wrapper.
    """

    def refactor(self, a: CsrMatrix) -> None:
        """Numeric-only refactorization from the float32-rounded ``a``."""
        self.inner.refactor(single_precision_matrix(a))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Cast down, apply the inner operator, cast back up.

        ``v`` is a vector or an ``(n, k)`` block of columns (the casts
        are elementwise; the inner operator takes the block in one
        call).  When a resilience engine with detection is active, a finite
        value overflowing the float32 cast raises
        :class:`~repro.resilience.detect.FloatOverflowError` (the
        recovery ladder responds by promoting the preconditioner back
        to double precision); otherwise the overflow stays silent, the
        seed behavior.
        """
        eng = get_engine()
        detect = eng is not None and eng.detect
        v64 = np.asarray(v, dtype=np.float64)
        # the casts handle out-of-range values themselves (check or
        # propagate inf): numpy's own cast-overflow warning is noise here
        with np.errstate(over="ignore"):
            v32 = v64.astype(np.float32)
            if detect:
                self._check_cast(v64, v32, "input")
            y = self.inner.apply(v32.astype(np.float64))
            y32 = y.astype(np.float32)
        if detect:
            self._check_cast(y, y32, "output")
        return y32.astype(np.float64)

    @staticmethod
    def _check_cast(full: np.ndarray, cast: np.ndarray, where: str) -> None:
        _, n_over, max_abs = _cast_overflow(full, cast)
        if n_over:
            raise FloatOverflowError(
                f"float32 overflow in the half-precision preconditioner "
                f"{where} cast: {n_over} values, max magnitude "
                f"{max_abs:.3e}",
                count=n_over,
                max_abs=max_abs,
                where=f"half_precision_{where}",
            )

    # ------------------------------------------------------------------
    def rank_setup_profile(self, rank: int, refactorization: bool = False) -> KernelProfile:
        """Inner setup kernels with halved memory traffic."""
        return self.inner.rank_setup_profile(rank, refactorization).scaled_bytes(0.5)

    def rank_apply_profile(self, rank: int) -> KernelProfile:
        """Inner apply kernels at half the bytes plus the casts."""
        prof = self.inner.rank_apply_profile(rank).scaled_bytes(0.5)
        n = unwrap(self.inner).one_level.dof_sets[rank].size
        prof.add("apply.precision_cast", flops=0.0, bytes=12.0 * n, parallelism=float(n))
        return prof

    def halo_doubles(self, rank: int) -> int:
        """Halo payload; halved since the halo moves float32 values."""
        return (self.inner.halo_doubles(rank) + 1) // 2
