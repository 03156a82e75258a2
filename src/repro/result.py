"""The outcome of a session solve.

:class:`SessionResult` carries the numerics of one
:meth:`repro.api.SolverSession.solve` / ``resolve`` plus the run's
wall-time trace, with accessors deriving every paper-style artifact
(timings under a layout, phase table, Chrome trace) from it.
:mod:`repro.api` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.krylov.status import SolveStatus
from repro.obs import Span
from repro.obs.export import chrome_trace_json, phase_table, to_jsonl

__all__ = ["SessionResult"]


@dataclass
class SessionResult:
    """Outcome of one :meth:`SolverSession.solve` / ``resolve``.

    Numerics (``x``, ``iterations``, ...) plus the run's wall-time
    trace and accessors deriving every paper-style artifact from it.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    reduces: int
    reduce_doubles: int
    final_relres: float
    n_coarse: int
    n_ranks: int
    precond: object
    trace: Span
    #: :class:`repro.verify.VerificationReport` when the session was
    #: constructed with ``verify=``; None otherwise
    verification: Optional[object] = None
    #: terminal :class:`~repro.krylov.status.SolveStatus`; ``recovered``
    #: when the solve converged only after resilience actions
    status: SolveStatus = SolveStatus.MAXITER
    #: :class:`repro.resilience.engine.HealthReport` when the session
    #: was constructed with a ``policy=``; None otherwise
    health: Optional[object] = None
    #: True when this solve reused the previous setup (the
    #: :meth:`SolverSession.resolve` skip/refactor paths); the priced
    #: setup is then the refactorization cost, not the first-solve cost
    setup_reused: bool = False
    #: :class:`repro.ft.FtReport` when the session was constructed with
    #: ``policy=FaultToleranceConfig(...)``; None otherwise
    ft: Optional[object] = None

    def priced_setup_seconds(self, layout) -> float:
        """The setup time this solve is billed under ``layout``.

        The first solve of a sequence pays
        ``SolverTimings.first_setup_seconds`` (symbolic + numeric);
        reused solves pay ``setup_seconds`` (the ``include_symbolic=
        False`` refactorization path for symbolic-reusable solvers).
        """
        t = self.timings(layout)
        return float(
            t.setup_seconds if self.setup_reused else t.first_setup_seconds
        )

    def timings(self, layout):
        """Price this run under a :class:`~repro.runtime.layout.JobLayout`.

        Returns the :class:`~repro.runtime.timings.SolverTimings` the
        paper tabulates; its ``.trace`` attribute holds the priced span
        tree (render with :func:`repro.obs.phase_table`).
        """
        from repro.runtime.timings import time_solver

        return time_solver(
            self.precond, layout, self.iterations, self.reduces,
            self.reduce_doubles,
        )

    def chrome_trace_json(self) -> str:
        """The wall-time trace in Chrome ``chrome://tracing`` format."""
        return chrome_trace_json(self.trace)

    def jsonl(self) -> str:
        """The wall-time trace as a JSON-lines event stream."""
        return to_jsonl(self.trace)

    def phase_table(self, title: str = "solver phases (wall time)") -> str:
        """Paper-style phase table of the wall-time trace."""
        return phase_table(self.trace, title=title)
