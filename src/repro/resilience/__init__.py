"""Breakdown-tolerant solver runtime: detect / recover / escalate.

The paper's experimental matrix is a menu of *approximate* components
with known numerical failure modes (pivot-free factorizations, FastILU
sweep divergence, half-precision overflow).  This package makes the
stack survive them:

* :mod:`repro.resilience.detect` -- the breakdown exception taxonomy
  and the cheap in-flight detectors (NaN/Inf, stagnation, near-zero
  pivots, sweep divergence, float32 overflow);
* :mod:`repro.resilience.policy` -- the per-subdomain escalation ladder
  (boost damping -> shift diagonal -> FastILU -> ILU(k) -> exact);
* :mod:`repro.resilience.inject` -- seeded fault plans that break runs
  on purpose so the ladder is testable;
* :mod:`repro.resilience.engine` -- the ambient engine threading it all
  through the solver, plus the per-run :class:`HealthReport`;
* ``python -m repro chaos --suite precond`` -- the chaos matrix CI
  runs (:mod:`repro.resilience.chaos`): every fault kind on Laplace
  and elasticity, failing on any unrecovered solve.

:class:`ResilienceConfig` has two fields: ``fault_plan`` and
``protect`` (detection and recovery together; ``False`` is the chaos
control arm).  Every threshold is a module constant --
:data:`~repro.resilience.detect.PIVOT_RTOL` and
:data:`~repro.resilience.detect.GROWTH_TOL` for the detectors, the
ladder bounds of :mod:`repro.resilience.policy`, and
:data:`~repro.resilience.engine.MAX_RESTARTS` (docs/robustness.md
tabulates them).

Typical use::

    from repro import SolverSession, ResilienceConfig, FaultPlan

    result = SolverSession(
        problem,
        policy=ResilienceConfig(
            fault_plan=FaultPlan.single("pivot_breakdown", rank=3)
        ),
    ).solve()
    print(result.status)            # "recovered"
    print(result.health.describe()) # faults, detections, actions, ladder
"""

from repro.resilience.context import get_engine, set_engine, use_engine
from repro.resilience.detect import (
    BREAKDOWN_EXCEPTIONS,
    DivergenceError,
    FloatOverflowError,
    KrylovGuard,
    NumericalBreakdown,
    PivotBreakdownError,
    check_pivot,
    nonfinite_count,
    sweep_divergence,
)
from repro.resilience.engine import (
    GuardedOperator,
    HealthReport,
    ResilienceConfig,
    ResilienceEngine,
)
from repro.resilience.inject import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.policy import (
    ACTION_KINDS,
    SERVICE_ACTION_KINDS,
    LadderState,
    RecoveryAction,
    RecoveryPolicy,
)

__all__ = [
    "get_engine",
    "set_engine",
    "use_engine",
    "NumericalBreakdown",
    "PivotBreakdownError",
    "DivergenceError",
    "FloatOverflowError",
    "BREAKDOWN_EXCEPTIONS",
    "nonfinite_count",
    "check_pivot",
    "sweep_divergence",
    "KrylovGuard",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "ACTION_KINDS",
    "SERVICE_ACTION_KINDS",
    "RecoveryAction",
    "LadderState",
    "RecoveryPolicy",
    "ResilienceConfig",
    "ResilienceEngine",
    "GuardedOperator",
    "HealthReport",
]
