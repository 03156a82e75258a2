"""Breakdown taxonomy and cheap in-flight detectors.

Every approximate component of the paper's experimental matrix has a
known numerical failure mode: the pivot-free multifrontal factorization
and ILU(k) hit zero/near-zero pivots, the synchronous Chow--Patel
sweeps of FastILU diverge on stiff elasticity blocks, and the
half-precision preconditioner silently overflows float32.  This module
defines the structured exception types those failures raise and the
(deliberately cheap) detectors that recognize them in flight.

The exception classes multiply-inherit from the builtin types the seed
code raised (``ZeroDivisionError``, ``OverflowError``) so existing
``except``/``pytest.raises`` sites keep working while the recovery
ladder in :mod:`repro.resilience.policy` can match on the structured
hierarchy.

Only numpy is imported here: the factorization kernels depend on this
module, so it must sit below every other layer of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "NumericalBreakdown",
    "PivotBreakdownError",
    "DivergenceError",
    "FloatOverflowError",
    "BREAKDOWN_EXCEPTIONS",
    "nonfinite_count",
    "check_pivot",
    "sweep_divergence",
    "KrylovGuard",
]


class NumericalBreakdown(ArithmeticError):
    """Base class of all structured numerical-breakdown signals."""


class PivotBreakdownError(NumericalBreakdown, ZeroDivisionError):
    """A factorization met a zero/near-zero (or non-positive) pivot.

    Subclasses ``ZeroDivisionError`` so seed-era callers that caught the
    untyped zero-pivot signal keep working.

    Attributes
    ----------
    index:
        Row/column (in the factorization's own ordering) of the pivot.
    value:
        The offending pivot value (None when the underlying dense
        kernel, e.g. LAPACK Cholesky, does not report it).
    solver:
        Short name of the factorization that broke down.
    """

    def __init__(
        self,
        message: str,
        index: Optional[int] = None,
        value: Optional[float] = None,
        solver: str = "",
    ) -> None:
        super().__init__(message)
        self.index = index
        self.value = value
        self.solver = solver


class DivergenceError(NumericalBreakdown):
    """A fixed-point iteration (FastILU sweeps) diverged.

    Attributes
    ----------
    norms:
        The per-sweep update norms that triggered the detector.
    solver:
        Short name of the diverging iteration.
    """

    def __init__(
        self,
        message: str,
        norms: Sequence[float] = (),
        solver: str = "fastilu",
    ) -> None:
        super().__init__(message)
        self.norms = list(norms)
        self.solver = solver


class FloatOverflowError(NumericalBreakdown, OverflowError):
    """A float64 -> float32 cast turned finite values into inf.

    Attributes
    ----------
    count:
        Number of overflowed values.
    max_abs:
        Largest input magnitude (the value that overflowed).
    where:
        Short description of the casting site.
    """

    def __init__(
        self, message: str, count: int = 0, max_abs: float = 0.0, where: str = ""
    ) -> None:
        super().__init__(message)
        self.count = count
        self.max_abs = max_abs
        self.where = where


#: what the recovery engine catches around a local factorization: the
#: structured hierarchy plus the untyped signals of dense kernels
BREAKDOWN_EXCEPTIONS = (
    NumericalBreakdown,
    ZeroDivisionError,
    np.linalg.LinAlgError,
)


# ----------------------------------------------------------------------
def nonfinite_count(values: np.ndarray) -> int:
    """Number of NaN/Inf entries (the basic health check)."""
    return int(values.size - np.count_nonzero(np.isfinite(values)))


def check_pivot(
    value: float, scale: float, index: int, solver: str, rtol: float = 1e-14
) -> None:
    """Raise :class:`PivotBreakdownError` on a zero/near-zero pivot.

    ``scale`` is a magnitude reference (typically the largest diagonal
    entry seen so far); the pivot is rejected when ``|value| <= rtol *
    scale`` -- the relative test that also catches the *near*-zero
    pivots whose reciprocal would amplify rounding noise into garbage
    triangular factors.
    """
    if not np.isfinite(value) or abs(value) <= rtol * max(scale, 1e-300):
        raise PivotBreakdownError(
            f"{solver}: zero/near-zero pivot {value:.3e} at index {index} "
            f"(|pivot| <= {rtol:g} * scale {scale:.3e})",
            index=index,
            value=float(value),
            solver=solver,
        )


def sweep_divergence(
    update_norms: Sequence[float], growth_tol: float = 10.0
) -> bool:
    """Did a fixed-point iteration's update norms diverge?

    The Chow--Patel iteration is only locally convergent: on stiff
    elasticity blocks the undamped synchronous sweeps amplify the
    update by a roughly constant factor per sweep (measured ~50x on a
    nu=0.49 subdomain) where a converging run contracts.  The detector
    fires when the last update norm is non-finite or exceeds
    ``growth_tol`` times the first sweep's norm.
    """
    norms = [float(n) for n in update_norms]
    if not norms:
        return False
    if not all(np.isfinite(n) for n in norms):
        return True
    first = norms[0]
    if first <= 0.0:
        return False
    return norms[-1] > growth_tol * first


# ----------------------------------------------------------------------
@dataclass
class KrylovGuard:
    """The residual watchdog of every Krylov solve (NaN/Inf + stagnation).

    Handed to :func:`repro.krylov.gmres.gmres` / ``cg`` /
    ``pipelined_cg`` as ``guard=``; ``on_residual`` is called once per
    inner iteration with the recurrence residual estimate and returns a
    breakdown reason or None.  It also *records*: ``history`` holds
    every estimate fed and ``iters`` the last iteration index, which is
    what the restart driver accounts when an attempt raises instead of
    returning a result.

    Reasons, in the order they are checked:

    * ``"nonfinite"`` -- the estimate left the reals;
    * whatever ``extra()`` returns -- one optional predicate consulted
      while the residual is not improving (the bounded-staleness budget
      of :class:`repro.elastic.StalenessGuard`);
    * ``stall_reason`` (``"stagnation"``) -- the best residual estimate
      must improve by at least a factor ``stall_factor`` within any
      ``stall_window`` consecutive iterations; a garbage-but-finite
      preconditioner (e.g. escaped FastILU divergence) plateaus and
      trips this where NaN guards see nothing.  ``stall_window=0``
      turns the stall check off (a pure recorder).
    """

    stall_window: int = 120
    stall_factor: float = 0.999
    stall_reason: str = "stagnation"
    extra: Optional[Callable[[], Optional[str]]] = None
    history: List[float] = field(default_factory=list)
    iters: int = 0
    _best: float = np.inf
    _best_at: int = -1

    def on_residual(self, iteration: int, estimate: float) -> Optional[str]:
        """Feed one residual estimate; returns a breakdown reason or None."""
        self.iters = iteration
        self.history.append(float(estimate))
        if not np.isfinite(estimate):
            return "nonfinite"
        if estimate < self._best * self.stall_factor:
            self._best = float(estimate)
            self._best_at = iteration
            return None
        if self.extra is not None:
            reason = self.extra()
            if reason is not None:
                return reason
        if self.stall_window > 0 and iteration - self._best_at >= self.stall_window:
            return self.stall_reason
        return None
