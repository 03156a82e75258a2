"""Preconditioned conjugate gradients.

The paper's experiments use GMRES, but CG is the natural Krylov method
for the SPD elasticity systems and serves as an ablation/validation
solver (it also makes SPD-ness violations in a preconditioner visible
as breakdowns, a property the test-suite uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.krylov.status import SolveStatus
from repro.obs import get_tracer
from repro.sparse.csr import CsrMatrix

__all__ = ["cg", "CgResult"]

Operator = Union[CsrMatrix, Callable[[np.ndarray], np.ndarray]]


@dataclass
class CgResult:
    """Outcome of a CG solve (fields mirror :class:`GmresResult`)."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    reduces: int
    status: SolveStatus = SolveStatus.MAXITER
    breakdown_reason: Optional[str] = None


def cg(
    a: Operator,
    b: np.ndarray,
    preconditioner: Optional[Operator] = None,
    x0: Optional[np.ndarray] = None,
    rtol: float = 1e-7,
    maxiter: int = 1000,
    callback: Optional[Callable[[int, np.ndarray], None]] = None,
) -> CgResult:
    """Solve SPD ``A x = b`` with preconditioned CG.

    Convergence when ``||r|| <= rtol * ||r0||``; two global reductions
    per iteration.  ``callback(it, x)`` observes the iterate after every
    update (used by :mod:`repro.verify` to diff against the distributed
    iterates).
    """
    from repro.krylov.gmres import _start

    tr = get_tracer()
    red = tr.reduce_counter()
    apply_a, apply_m, b, x = _start(a, b, preconditioner, x0)
    with tr.span("krylov/spmv"):
        r = b - apply_a(x)
    z = apply_m(r)
    p = np.array(z, copy=True)
    rz = float(red.allreduce(float(r @ z))[0])
    r0 = float(np.sqrt(red.allreduce(float(r @ r))[0]))
    residuals = [r0]
    if r0 == 0.0:
        return CgResult(
            x, 0, True, residuals, red.count, status=SolveStatus.CONVERGED
        )

    it = 0
    converged = False
    breakdown_reason: Optional[str] = None
    while it < maxiter:
        with tr.span("krylov/spmv"):
            ap = apply_a(p)
        pap = float(red.allreduce(float(p @ ap))[0])
        if not np.isfinite(pap):
            breakdown_reason = "nonfinite"
            break
        if pap <= 0.0:
            breakdown_reason = "indefinite"
            break  # loss of positive definiteness
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        it += 1
        if callback is not None:
            callback(it, x)
        rn = float(np.sqrt(red.allreduce(float(r @ r))[0]))
        residuals.append(rn)
        if rn <= rtol * r0:
            converged = True
            break
        z = apply_m(r)
        rz_new = float(red.allreduce(float(r @ z))[0])
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return CgResult(
        x,
        it,
        converged,
        residuals,
        red.count,
        status=SolveStatus.of(converged, breakdown_reason),
        breakdown_reason=breakdown_reason,
    )
