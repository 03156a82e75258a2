"""The one Krylov driver: GMRES dispatch and the anchored-restart loop.

Every entry point that iterates -- :class:`~repro.api.SolverSession`
(``solve`` / ``resolve``, any ``policy=``), the bounded-staleness
:func:`repro.elastic.solve_async`, the block solves of
:class:`~repro.serve.service.SolverService` -- runs through here:

* :func:`run_krylov` is the only code that maps a configuration to a
  solver call (``gmres``, or ``block_gmres`` for an ``(n, k)``
  right-hand side);
* :func:`solve_with_restarts` is the only restart loop: run an attempt;
  on failure -- a breakdown result *or* an exception the protection
  declares recoverable -- ask the active :class:`Protection` for a
  repaired ``(operator, x0)`` or give up; re-anchor the tolerance; keep
  the books across attempts.

**The anchor rule.**  A solver measures convergence against its own
starting residual, so a restart from ``x0`` is handed
``rtol_eff = min(1, target_abs / ||b - A x0||)`` with
``target_abs = rtol * ||r_first||``, ``r_first`` the residual the
*first* attempt started from (``b`` for a zero guess), spelled
``sqrt(r . r)`` as the solvers spell their initial norm.  However often
it restarts, the solve targets the absolute residual a fault-free one
does.

**The protection protocol.**  A session's ``policy=`` turns into a
:class:`Protection` (the class itself is the null policy and documents
the hooks).  :mod:`repro.resilience.engine` and :mod:`repro.ft.driver`
implement it once each; the staleness fallback of
:mod:`repro.elastic.async_schwarz` is a third, tiny one.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.krylov.block import block_gmres
from repro.krylov.gmres import gmres
from repro.krylov.status import SolveStatus

__all__ = [
    "DriverResult",
    "Protection",
    "Repair",
    "run_krylov",
    "solve_with_restarts",
]


@dataclass
class Repair:
    """Where to resume after a failure: the operator and the iterate.

    ``x0=None`` restarts cold (zero guess, the original tolerance).
    """

    operator: object
    x0: Optional[np.ndarray] = None


class Protection:
    """The hooks a protection policy plugs into the solve pipeline.

    This base class is the null policy (``policy=None``): nothing is
    wrapped, watched or recovered, and every hook costs a no-op call
    outside the Krylov iteration.  A protection lives as long as the
    operator it guards (the session makes a fresh one per cold build);
    :meth:`wrap` opens each solve.
    """

    #: exception types an attempt (or a repair) may raise that
    #: :meth:`recover` knows how to handle
    recoverable: Tuple[type, ...] = ()
    #: True while the policy is injecting faults on purpose -- the
    #: session then keeps its invariant observer off
    injecting = False

    def context(self):
        """Ambient scope active while the operator is built, refactored
        and applied (may be entered more than once per solve)."""
        return nullcontext()

    def wrap(self, operator, rung: str):
        """Open one solve: ``(protected operator, pending failure)``.

        ``rung`` is the reuse rung that produced ``operator``
        (``"cold"`` / ``"refactor"`` / ``"skip"``).  A failure caught
        while wrapping (a rank lost during the setup exchange) is
        returned, not raised, so the restart loop repairs it before the
        first attempt.
        """
        return operator, None

    def watchdog(self):
        """A fresh residual watchdog for one attempt (None: unwatched)."""
        return None

    def observer(self, operator, watchdog, iterations: int):
        """An extra per-attempt GMRES observer (``on_cycle``), or None."""
        return None

    def recover(self, failure, operator, a, b) -> Optional[Repair]:
        """Repair after ``failure`` -- a breakdown result or a
        :attr:`recoverable` exception; None gives up."""
        return None

    def report(self, result: "DriverResult") -> Tuple[SolveStatus, dict]:
        """Close one solve: the terminal status and the policy's
        ``SessionResult`` fields (``health=``, ``ft=``).  Whatever the
        protection logs after this belongs to the next solve."""
        return result.status, {}


@dataclass
class DriverResult:
    """Outcome of :func:`solve_with_restarts` (all attempts combined)."""

    x: np.ndarray
    converged: bool
    status: SolveStatus
    iterations: int
    residual_norms: List[float]
    #: reductions of the attempts that returned (a raised attempt's are
    #: on the tracer only)
    reduces: int
    #: the operator the last attempt ran with (repairs replace it)
    operator: object
    breakdown_reason: Optional[str] = None


def run_krylov(
    kry, a, b, operator, x0=None, rtol=None, maxiter=None,
    observer=None, guard=None,
):
    """One GMRES attempt under configuration ``kry``.

    ``kry`` carries ``variant`` / ``rtol`` / ``restart`` / ``maxiter``
    (a :class:`~repro.config.KrylovConfig`); ``rtol`` and ``maxiter``
    override it for a restart.  A 2-D ``b`` runs the lockstep block
    solver.
    """
    rtol = kry.rtol if rtol is None else rtol
    maxiter = kry.maxiter if maxiter is None else maxiter
    common = dict(
        preconditioner=operator, x0=x0, rtol=rtol, maxiter=maxiter,
        restart=kry.restart, variant=kry.variant,
    )
    if np.ndim(b) == 2:
        return block_gmres(a, b, **common)
    return gmres(a, b, observer=observer, guard=guard, **common)


class _Observers:
    """Fans the one solver observer slot out to several observers."""

    def __init__(self, observers) -> None:
        self.observers = observers

    def on_cycle(self, **kw) -> None:
        for obs in self.observers:
            obs.on_cycle(**kw)


def _fan_out(*observers):
    live = [o for o in observers if o is not None]
    if len(live) < 2:
        return live[0] if live else None
    return _Observers(live)


def solve_with_restarts(
    kry, a, b, operator, protection: Optional[Protection] = None,
    x0=None, observer=None, failure=None,
) -> DriverResult:
    """Solve ``A x = b``, restarting through ``protection`` on failure.

    ``failure`` is a failure already pending when the loop starts (see
    :meth:`Protection.wrap`).  Restarts share ``kry.maxiter``: the loop
    ends -- with the last attempt's status, or ``MAXITER`` if none
    returned -- once no iterations remain.  A recoverable exception the
    protection declines to repair is re-raised.
    """
    protection = protection or Protection()
    x_first, target_abs = x0, None
    rtol_eff = kry.rtol
    out = DriverResult(
        x=None, converged=False, status=SolveStatus.MAXITER, iterations=0,
        residual_norms=[], reduces=0, operator=operator,
    )
    res = None
    while True:
        if failure is not None:
            try:
                repair = protection.recover(failure, out.operator, a, b)
            except protection.recoverable as exc:  # the repair re-failed
                failure = exc
                continue
            if repair is None:
                if isinstance(failure, BaseException):
                    raise failure
                break
            failure = None
            out.operator, x0 = repair.operator, repair.x0
            rtol_eff = kry.rtol
            if x0 is not None:
                if target_abs is None:
                    r = b if x_first is None else b - a.matvec(x_first)
                    target_abs = kry.rtol * float(np.sqrt(r @ r))
                rnow = float(np.linalg.norm(b - a.matvec(x0)))
                rtol_eff = min(1.0, target_abs / max(rnow, 1e-300))
        remaining = kry.maxiter - out.iterations
        if remaining < 1:
            break
        watchdog = protection.watchdog()
        hooks = _fan_out(
            observer, protection.observer(out.operator, watchdog, out.iterations)
        )
        try:
            res = run_krylov(
                kry, a, b, out.operator, x0=x0, rtol=rtol_eff,
                maxiter=remaining, observer=hooks, guard=watchdog,
            )
        except protection.recoverable as exc:
            # the failed attempt's completed iterations still count
            out.iterations += watchdog.iters
            out.residual_norms.extend(watchdog.history)
            res, failure = None, exc
            continue
        out.iterations += res.iterations
        out.residual_norms.extend(res.residual_norms)
        out.reduces += res.reduces
        if res.converged or res.breakdown_reason is None:
            break
        failure = res
    if res is None:  # no attempt returned since the last repair
        out.x = x0 if x0 is not None else np.zeros(np.shape(b)[0])
    else:
        out.x = res.x
        out.converged = bool(res.converged)
        out.status = res.status
        out.breakdown_reason = res.breakdown_reason
    return out
