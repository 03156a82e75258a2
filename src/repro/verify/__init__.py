"""Numerical-invariant verification for the Schwarz solver stack.

Three layers of defense against silently-wrong numbers:

* :mod:`repro.verify.invariants` -- algebraic invariants of one solve
  (residual drift, Arnoldi orthogonality, overlap symmetry/SPD-ness,
  coarse-basis partition of unity / Eq. (2) / null-space reproduction),
  bundled by :func:`verify_run` into a :class:`VerificationReport`;
* :mod:`repro.verify.diff` -- phase-by-phase comparison of the
  sequential numerics against the message-faithful distributed
  execution, reporting the causally first divergent phase;
* :mod:`repro.verify.cost_audit` -- replay of a priced trace against
  the communication counters the simulated MPI layer recorded.

Entry points: ``SolverSession(problem, verify=True)`` runs the suite
after every solve; ``python -m repro verify`` runs it standalone for CI.
"""

from repro.verify.cost_audit import AuditEntry, CostModelAudit, audit_cost_model
from repro.verify.diff import ExecutionDiff, PhaseDiff, diff_executions
from repro.verify.invariants import (
    InvariantCheck,
    VerificationError,
    VerificationReport,
    VerifyConfig,
    check_coarse_basis,
    check_overlap_operator,
    check_residual_drift,
    check_spectral_space,
    verify_run,
)
from repro.verify.observers import CycleRecord, GmresInvariantObserver

__all__ = [
    "AuditEntry",
    "CostModelAudit",
    "CycleRecord",
    "ExecutionDiff",
    "GmresInvariantObserver",
    "InvariantCheck",
    "PhaseDiff",
    "VerificationError",
    "VerificationReport",
    "VerifyConfig",
    "audit_cost_model",
    "check_coarse_basis",
    "check_overlap_operator",
    "check_residual_drift",
    "check_spectral_space",
    "diff_executions",
    "verify_run",
]
