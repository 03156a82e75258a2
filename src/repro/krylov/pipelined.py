"""Pipelined conjugate gradients (Ghysels & Vanroose).

Table I of the paper lists pipelined and communication-avoiding Krylov
variants among the available options (Belos implements them; the
experiments use single-reduce GMRES).  Pipelined CG restructures the
recurrences so the *single* global reduction of each iteration can
overlap with the matrix-vector product and preconditioner application:
the two CG inner products (and the residual norm) are batched into one
allreduce, issued *before* the iteration's matvec+preconditioner work,
and auxiliary vectors advance by recurrences instead of recomputation.

In exact arithmetic the iterates coincide with classical PCG; in finite
precision the recurrences drift slowly, which is why production
implementations pair the method with residual replacement -- mirrored
here with a periodic explicit residual recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Union

import numpy as np

from repro.krylov.status import SolveStatus
from repro.obs import get_tracer
from repro.sparse.csr import CsrMatrix

__all__ = ["pipelined_cg", "PipelinedCgResult"]

Operator = Union[CsrMatrix, Callable[[np.ndarray], np.ndarray]]


@dataclass
class PipelinedCgResult:
    """Outcome of a pipelined-CG solve.

    ``replacements`` counts the residual-replacement steps that bound
    the recurrence drift.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    reduces: int
    replacements: int
    status: SolveStatus = SolveStatus.MAXITER
    breakdown_reason: Optional[str] = None


def pipelined_cg(
    a: Operator,
    b: np.ndarray,
    preconditioner: Optional[Operator] = None,
    x0: Optional[np.ndarray] = None,
    rtol: float = 1e-7,
    maxiter: int = 1000,
    replace_every: int = 50,
    guard: Optional[object] = None,
) -> PipelinedCgResult:
    """Solve SPD ``A x = b`` with preconditioned pipelined CG.

    One batched global reduction per iteration (classical PCG issues
    two to three); ``replace_every`` controls the residual-replacement
    period.  ``guard`` is an optional health monitor
    (see :class:`repro.resilience.detect.KrylovGuard`) stopping the
    solve with ``status="breakdown"`` on NaN/stagnation.
    """
    from repro.krylov.gmres import _start

    tr = get_tracer()
    red = tr.reduce_counter()
    apply_a, apply_m, b, x = _start(a, b, preconditioner, x0)

    with tr.span("krylov/spmv"):
        r = b - apply_a(x)
    u = apply_m(r)
    with tr.span("krylov/spmv"):
        w = apply_a(u)

    gamma_old = 0.0
    alpha_old = 0.0
    z = q = p = s = None
    r0 = None
    residuals: List[float] = []
    converged = False
    breakdown_reason: Optional[str] = None
    replacements = 0
    it = 0
    x_best = x

    while it < maxiter:
        # ONE batched reduction per iteration; in a real pipeline it
        # overlaps with the m/n computations issued right after
        vals = red.allreduce(np.array([r @ u, w @ u, r @ r]))
        gamma, delta, rr = float(vals[0]), float(vals[1]), float(vals[2])
        rn = float(np.sqrt(max(rr, 0.0)))
        if r0 is None:
            r0 = rn
            residuals.append(rn)
            if r0 == 0.0:
                return PipelinedCgResult(
                    x, 0, True, residuals, red.count, 0,
                    status=SolveStatus.CONVERGED,
                )
        else:
            residuals.append(rn)
        if guard is not None:
            reason = guard.on_residual(it, rn if np.isfinite(rr) else np.nan)
            if reason is not None:
                breakdown_reason = reason
                x = x_best  # roll back to the last finite iterate
                break
        if rn <= rtol * r0:
            converged = True
            break
        x_best = x

        m_vec = apply_m(w)
        with tr.span("krylov/spmv"):
            n_vec = apply_a(m_vec)

        if it == 0:
            beta = 0.0
            alpha = gamma / delta
            z = n_vec.copy()
            q = m_vec.copy()
            p = u.copy()
            s = w.copy()
        else:
            beta = gamma / gamma_old
            denom = delta - beta * gamma / alpha_old
            if denom == 0.0:
                breakdown_reason = "indefinite"
                break  # breakdown (loss of positive definiteness)
            alpha = gamma / denom
            z = n_vec + beta * z
            q = m_vec + beta * q
            p = u + beta * p
            s = w + beta * s

        x = x + alpha * p
        r = r - alpha * s
        u = u - alpha * q
        w = w - alpha * z
        gamma_old, alpha_old = gamma, alpha
        it += 1

        if replace_every and it % replace_every == 0:
            # residual replacement: recompute exactly to stop drift
            with tr.span("krylov/spmv"):
                r = b - apply_a(x)
            u = apply_m(r)
            with tr.span("krylov/spmv"):
                w = apply_a(u)
            replacements += 1

    # final explicit check (one extra reduce, as in the other solvers)
    with tr.span("krylov/spmv"):
        r = b - apply_a(x)
    final = float(np.sqrt(red.allreduce(r @ r)[0]))
    residuals.append(final)
    converged = r0 is not None and final <= rtol * r0
    return PipelinedCgResult(
        x,
        it,
        converged,
        residuals,
        red.count,
        replacements,
        status=SolveStatus.of(converged, breakdown_reason),
        breakdown_reason=breakdown_reason,
    )
