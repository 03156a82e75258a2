"""Explicit terminal status of a Krylov solve.

Callers used to infer the outcome from ``converged`` plus the tail of
``residual_norms`` -- which cannot distinguish "ran out of iterations"
from "the recurrence went NaN at iteration 12".  Every solver result
now carries a :class:`SolveStatus`:

* ``CONVERGED`` -- the (explicitly confirmed) residual met ``rtol``;
* ``MAXITER`` -- the iteration cap was reached while still finite;
* ``BREAKDOWN`` -- a health guard stopped the solve (non-finite
  recurrence, stagnation, loss of positive definiteness); the reported
  iterate is the last finite one;
* ``RECOVERED`` -- session-level only: the solve converged after one or
  more recovery actions (set by :class:`~repro.api.SolverSession`, never
  by the raw solvers);
* ``SHED`` -- service-level only: the request was refused (at admission
  or in queue) because its deadline was already unmeetable, its shard's
  circuit breaker was open, or the service was over capacity -- a fast
  honest rejection instead of a silently-late answer (set by
  :class:`~repro.serve.service.SolverService`, never by the solvers);
* ``FAILED`` -- service-level only: the batch executing this request
  raised and the retry budget (if any) was exhausted; the drain
  continued and the request got this terminal answer instead of being
  stranded in flight.

The enum mixes in ``str``: ``result.status == "converged"`` works, and
the values serialize cleanly into benchmark records.
"""

from __future__ import annotations

import enum

__all__ = ["SolveStatus"]


class SolveStatus(str, enum.Enum):
    """Terminal state of a Krylov solve (see module docstring)."""

    CONVERGED = "converged"
    MAXITER = "maxiter"
    BREAKDOWN = "breakdown"
    RECOVERED = "recovered"
    SHED = "shed"
    FAILED = "failed"

    def __str__(self) -> str:  # "converged", not "SolveStatus.CONVERGED"
        return self.value

    @classmethod
    def of(cls, converged: bool, breakdown_reason) -> "SolveStatus":
        """A raw solver's terminal status from how its loop ended."""
        if converged:
            return cls.CONVERGED
        return cls.MAXITER if breakdown_reason is None else cls.BREAKDOWN
