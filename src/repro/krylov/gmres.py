"""Restarted GMRES with selectable orthogonalization variants.

Right-preconditioned GMRES(m) [Saad & Schultz 1986] with incremental
Givens least-squares and three orthogonalization schemes; the
``"single_reduce"`` scheme [Swirydowicz et al. 2021] batches the
projection coefficients and the norm into one global reduction per
iteration, as used for all experiments of the paper (Section VII:
restart 30, rtol 1e-7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.backend import get_backend
from repro.krylov.reduce import ReduceCounter
from repro.krylov.status import SolveStatus
from repro.obs import get_tracer
from repro.sparse.csr import CsrMatrix

__all__ = ["gmres", "GmresResult", "GMRES_VARIANTS"]

Operator = Union[CsrMatrix, Callable[[np.ndarray], np.ndarray]]

#: valid orthogonalization schemes (see the package docstring table)
GMRES_VARIANTS = ("mgs", "cgs", "single_reduce")


@dataclass
class GmresResult:
    """Outcome of a GMRES solve.

    Attributes
    ----------
    x:
        Final iterate.
    iterations:
        Total inner iterations performed (the paper's reported counts).
    converged:
        True when the relative residual dropped below ``rtol`` *and*
        the explicit residual test confirmed it.
    residual_norms:
        Recurrence residual estimates only: the initial residual
        followed by the Givens estimate ``|g[j+1]|`` after every inner
        iteration.  Explicitly computed residuals never appear here;
        they are recorded in ``true_residual_norms``.
    reduces:
        Number of global reductions issued (orthogonalization + norms).
    restarts:
        Number of *restarts*, i.e. cycles after the first: a solve that
        converges within its first cycle reports 0.
    true_residual_norms:
        Every explicitly computed ``||b - A x||``, tagged with the
        inner-iteration count at which it was evaluated (the Belos-style
        convergence confirmations at cycle ends).
    status:
        Terminal :class:`~repro.krylov.status.SolveStatus`
        (``converged`` / ``maxiter`` / ``breakdown``).
    breakdown_reason:
        What the health guard saw (``"nonfinite"`` / ``"stagnation"``)
        when ``status == "breakdown"``; None otherwise.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    reduces: int
    restarts: int
    true_residual_norms: List[Tuple[int, float]] = field(default_factory=list)
    status: SolveStatus = SolveStatus.MAXITER
    breakdown_reason: Optional[str] = None


def _as_apply(op: Optional[Operator]):
    if op is None:
        return lambda v: v
    if callable(op) and not isinstance(op, CsrMatrix):
        return op
    return op.matvec


def _start(a, b, preconditioner, x0):
    """Common solver preamble on the backend of ``b``.

    Returns ``(bk, apply_a, apply_m, b, x)``: the operator and the
    preconditioner (an object's ``apply`` wins over ``matvec``) as
    backend-lifted callables, the float64 right-hand side and the
    starting iterate (zero, or a copy of ``x0``).
    """
    if preconditioner is not None and hasattr(preconditioner, "apply"):
        apply_m = preconditioner.apply
    else:
        apply_m = _as_apply(preconditioner)
    bk = get_backend(b)
    b = bk.astype(bk.asarray(b), np.float64)
    if x0 is None:
        x = bk.zeros(b.shape[0], dtype=np.float64)
    else:
        x = bk.astype(bk.copy(bk.asarray(x0)), np.float64)
    return bk, _bk_apply(_as_apply(a), bk), _bk_apply(apply_m, bk), b, x


def _bk_apply(f, bk):
    """Wrap an operator application for backend-routed Krylov loops.

    Operators and preconditioners are host-facing (CSR matvec routes
    itself; arbitrary callables expect numpy), so the wrapper hands them
    a host array and lifts the result back to the solve's backend.  On
    the numpy backend both conversions are identities, preserving
    bit-identity; on other backends this is the documented host
    round-trip per operator application.
    """
    if bk.is_numpy:
        return f
    return lambda v: bk.asarray(f(bk.to_numpy(v)))


def gmres(
    a: Operator,
    b: np.ndarray,
    preconditioner: Optional[Operator] = None,
    x0: Optional[np.ndarray] = None,
    rtol: float = 1e-7,
    restart: int = 30,
    maxiter: int = 1000,
    variant: str = "single_reduce",
    observer: Optional[object] = None,
    guard: Optional[object] = None,
) -> GmresResult:
    """Solve ``A x = b`` with right-preconditioned restarted GMRES.

    Parameters
    ----------
    a:
        System operator (CSR matrix or callable).
    b:
        Right-hand side.
    preconditioner:
        Right preconditioner ``M^{-1}`` (CSR, callable, or an object
        with ``apply``); identity when None.
    x0:
        Initial guess (zero when None).
    rtol:
        Convergence when ``||b - A x|| <= rtol * ||b - A x0||``
        (the paper's "residual norm reduced by 1e-7").
    restart:
        Cycle length ``m`` (paper: 30).
    maxiter:
        Cap on total inner iterations.
    variant:
        ``"mgs"``, ``"cgs"`` or ``"single_reduce"``.
    observer:
        Optional invariant observer (see
        :class:`repro.verify.GmresInvariantObserver`): after every cycle
        its ``on_cycle(basis, x, estimate, true_norm)`` method receives
        the Arnoldi basis built in that cycle, the current iterate, the
        recurrence residual estimate, and -- when the cycle ended in an
        explicit residual test -- the computed ``||b - A x||``.  The
        hook costs nothing when None and issues no extra reductions.
    guard:
        Optional health monitor (see
        :class:`repro.resilience.detect.KrylovGuard`): ``on_residual``
        is fed every recurrence estimate; a non-None return stops the
        solve with ``status="breakdown"``.  With a guard, a non-finite
        Hessenberg column is caught *before* it enters the least-squares
        update, so the returned iterate is assembled from finite basis
        vectors only (the "last finite iterate" a restart resumes from).
        Without a guard behavior is unchanged (NaNs propagate to
        ``maxiter``, the seed behavior).
    """
    if variant not in GMRES_VARIANTS:
        raise ValueError(
            f"unknown GMRES variant {variant!r}; valid variants: "
            + ", ".join(repr(v) for v in GMRES_VARIANTS)
        )
    tr = get_tracer()
    red = tr.reduce_counter()
    bk, apply_a, apply_m, b, x = _start(a, b, preconditioner, x0)
    n = b.shape[0]

    with tr.span("krylov/spmv"):
        r = b - apply_a(x)
    beta0 = float(np.sqrt(red.allreduce(float(bk.dot(r, r)))[0]))
    residuals = [beta0]
    if beta0 == 0.0:
        return GmresResult(
            x, 0, True, residuals, red.count, 0, status=SolveStatus.CONVERGED
        )
    tol_abs = rtol * beta0

    total_iters = 0
    cycles = 0
    converged = False
    breakdown_reason: Optional[str] = None
    true_residuals: List[Tuple[int, float]] = []

    while total_iters < maxiter and not converged:
        cycles += 1
        with tr.span("krylov/spmv"):
            r = b - apply_a(x)
        beta = float(np.sqrt(red.allreduce(float(bk.dot(r, r)))[0]))
        if beta <= tol_abs:
            converged = True
            break
        m = min(restart, maxiter - total_iters)
        v = bk.empty((m + 1, n), dtype=np.float64)
        z = bk.empty((m, n), dtype=np.float64)  # preconditioned directions
        # host least-squares state (Hessenberg + Givens) stays numpy
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        v[0] = r / beta

        j_used = 0
        orth_state = {"gamma": _ORTHO_EPS}
        for j in range(m):
            z[j] = apply_m(v[j])
            with tr.span("krylov/spmv"):
                w = apply_a(z[j])
            with tr.span("krylov/orth"):
                hj, hnext, w = _orthogonalize(
                    variant, v[: j + 1], w, red, orth_state
                )
            if guard is not None and not (
                np.all(np.isfinite(hj)) and np.isfinite(hnext)
            ):
                # stop BEFORE the broken column enters the least-squares
                # problem: x below is assembled from z[:j_used] only, so
                # the returned iterate stays finite for a restart.
                breakdown_reason = "nonfinite"
                break
            h[: j + 1, j] = hj
            h[j + 1, j] = hnext
            if hnext > 0:
                v[j + 1] = w / hnext
            else:  # lucky breakdown
                v[j + 1] = 0.0
            _givens_update(h, g, cs, sn, j)
            total_iters += 1
            j_used = j + 1
            residuals.append(abs(g[j + 1]))
            if guard is not None:
                reason = guard.on_residual(total_iters, abs(g[j + 1]))
                if reason is not None:
                    breakdown_reason = reason
                    break
            if abs(g[j + 1]) <= tol_abs or hnext == 0.0:
                converged = abs(g[j + 1]) <= tol_abs
                break
        # solution update from the cycle
        if j_used:
            y = _back_substitute(h, g, j_used)
            x = x + bk.gemv(z[:j_used].T, bk.asarray(y))
        true_norm = None
        if converged:
            # explicit residual test (Belos-style): the recurrence
            # estimate can be optimistic under lagged-norm CGS; verify
            # against the true residual and keep iterating on failure.
            with tr.span("krylov/spmv"):
                r = b - apply_a(x)
            true_norm = float(np.sqrt(red.allreduce(float(bk.dot(r, r)))[0]))
            true_residuals.append((total_iters, true_norm))
            converged = true_norm <= tol_abs * (1 + 1e-12)
        if observer is not None:
            observer.on_cycle(
                basis=bk.to_numpy(v[: j_used + 1]),
                x=bk.to_numpy(x),
                estimate=abs(g[j_used]) if j_used else beta,
                true_norm=true_norm,
            )
        if breakdown_reason is not None:
            break

    return GmresResult(
        x,
        total_iters,
        converged,
        residuals,
        red.count,
        max(cycles - 1, 0),
        true_residuals,
        status=SolveStatus.of(converged, breakdown_reason),
        breakdown_reason=breakdown_reason,
    )


def _givens_update(h, g, cs, sn, j: int) -> None:
    """Fold column ``j`` of the Hessenberg ``h`` into its incremental
    Givens QR (rotations ``cs``/``sn``, rotated right-hand side ``g``)."""
    for i in range(j):
        t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
        h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
        h[i, j] = t
    denom = np.hypot(h[j, j], h[j + 1, j])
    if denom == 0.0:
        cs[j], sn[j] = 1.0, 0.0
    else:
        cs[j], sn[j] = h[j, j] / denom, h[j + 1, j] / denom
    h[j, j] = denom
    h[j + 1, j] = 0.0
    g[j + 1] = -sn[j] * g[j]
    g[j] = cs[j] * g[j]


def _back_substitute(h, g, ju: int) -> np.ndarray:
    """The least-squares coefficients of a cycle's first ``ju`` columns."""
    y = np.zeros(ju)
    for i in range(ju - 1, -1, -1):
        y[i] = (g[i] - h[i, i + 1 : ju] @ y[i + 1 :]) / h[i, i]
    return y


#: machine epsilon, the orthogonality error a fresh (or freshly
#: reorthogonalized) basis carries
_ORTHO_EPS = float(np.finfo(np.float64).eps)
#: compounded orthogonality-error bound at which the single-reduce
#: scheme pays for a second pass (well under the 1e-6 the verification
#: suite holds ``||V V^T - I||`` to)
_ORTHO_LOSS_BUDGET = 1e-10


def _orthogonalize(
    variant: str,
    v: np.ndarray,
    w: np.ndarray,
    red: ReduceCounter,
    state: Optional[dict] = None,
):
    """Orthogonalize ``w`` against the rows of ``v``.

    Returns ``(h, h_next, w_orth)`` and issues the variant's reductions
    through ``red``.  ``state`` carries the single-reduce scheme's
    per-cycle orthogonality-error tracking between iterations; a
    stateless call behaves like the first iteration of a cycle.
    """
    jp1 = v.shape[0]
    bk = get_backend(w)
    if variant == "mgs":
        h = np.empty(jp1)  # backend-ok: host projection coefficients
        for i in range(jp1):
            h[i] = red.allreduce(float(bk.dot(v[i], w)))[0]
            w = w - h[i] * v[i]
        hnext = float(np.sqrt(red.allreduce(float(bk.dot(w, w)))[0]))  # backend-ok: host scalar
        return h, hnext, w
    if variant == "cgs":
        h = red.allreduce(bk.to_numpy(bk.dot(v, w))).copy()
        w = w - bk.gemv(v.T, bk.asarray(h))
        hnext = float(np.sqrt(red.allreduce(float(bk.dot(w, w)))[0]))  # backend-ok: host scalar
        return h, hnext, w
    # single_reduce: batch projections and the squared norm in ONE reduce
    payload = np.concatenate(  # backend-ok: host reduction payload
        [bk.to_numpy(bk.dot(v, w)), [float(bk.dot(w, w))]]
    )
    payload = red.allreduce(payload)
    h = payload[:jp1].copy()
    wtw = payload[jp1]
    w = w - bk.gemv(v.T, bk.asarray(h))
    # lagged (Pythagorean) norm: ||w_orth||^2 = ||w||^2 - ||h||^2
    est = wtw - float(h @ h)
    if state is None:
        state = {"gamma": _ORTHO_EPS}
    # Each single-pass CGS step amplifies the basis' orthogonality
    # error by roughly the cancellation ratio ||w||^2 / ||w_orth||^2:
    # the projection error h^T (V V^T - I) h / est corrupts the lagged
    # norm, the mis-normalized v[j+1] degrades V V^T further, and the
    # loop compounds geometrically across the cycle.  Track the
    # compounded bound and pay a second pass just before it could grow
    # visible -- this keeps ||V V^T - I|| near machine precision while
    # reorthogonalizing only every few iterations (one reduce per
    # iteration stays the common case), where a fixed per-iteration
    # cancellation threshold must either fire every iteration or let
    # the error reach O(1).
    amp = wtw / est if est > 0.0 else np.inf
    gamma = state["gamma"] * max(amp, 1.0) ** 2
    if est > 0.0 and gamma <= _ORTHO_LOSS_BUDGET:
        state["gamma"] = gamma
        return h, float(np.sqrt(est)), w  # backend-ok: host scalar
    # selective reorthogonalization: a second batched pass restores
    # MGS-level stability (and resets the error tracking) at the price
    # of one extra reduce in these iterations.
    state["gamma"] = _ORTHO_EPS
    payload = np.concatenate(  # backend-ok: host reduction payload
        [bk.to_numpy(bk.dot(v, w)), [float(bk.dot(w, w))]]
    )
    payload = red.allreduce(payload)
    h2 = payload[:jp1]
    wtw2 = payload[jp1]
    w = w - bk.gemv(v.T, bk.asarray(h2))
    h = h + h2
    est2 = wtw2 - float(h2 @ h2)
    if est2 <= 0.0:
        # rounding can push the lagged estimate non-positive even when a
        # (tiny but real) new direction survives: reporting hnext = 0
        # here would read as a lucky breakdown and end the cycle early.
        # Pay one explicit norm reduction to distinguish the two cases.
        hnext = float(np.sqrt(red.allreduce(float(bk.dot(w, w)))[0]))  # backend-ok: host scalar
    else:
        hnext = float(np.sqrt(est2))  # backend-ok: host scalar
    return h, hnext, w
