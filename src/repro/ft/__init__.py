"""Rank-loss fault tolerance: ULFM-style recovery for the model runtime.

The :mod:`repro.resilience` ladder handles everything a *live* rank can
retry -- pivot breakdowns, diverging sweeps, overflow, stagnation.
This package handles the failure mode beyond all of those: the process
itself dies.  It simulates MPI's User-Level Failure Mitigation (ULFM)
semantics on top of :class:`~repro.runtime.simmpi.SimComm` and
implements the standard HPC recovery stack over it:

* :class:`FaultTolerantComm` -- survivors see
  :class:`RankFailedError` on any op touching a dead rank; repaired by
  :meth:`~FaultTolerantComm.shrink` or
  :meth:`~FaultTolerantComm.respawn`;
* :class:`RankFailurePlan` -- seeded, phase-keyed death schedules;
* :class:`CheckpointStore` -- diskless in-memory checkpoints with
  neighbor (buddy) replication, priced as halo traffic;
* :func:`~repro.ft.recovery.interpolated_restart` -- restart iterate
  from surviving checkpoint copies, lost segments filled by the GDSW
  coarse interpolation (the shared restart loop re-anchors the
  tolerance to the original residual);
* ``SolverSession(policy=FaultToleranceConfig(...))`` -- turns into a
  :class:`RankLossProtection` threading all of the above through the
  session's one solve pipeline (:func:`solve_fault_tolerant` is the
  functional spelling);
* ``python -m repro.ft`` -- the chaos matrix (kill-phase x strategy)
  emitting ``BENCH_ft.json`` for the CI ``chaos-ft`` gate.
"""

from repro.ft.checkpoint import CheckpointStore
from repro.ft.comm import CHECKPOINT_TAG, FaultTolerantComm, RankFailedError
from repro.ft.driver import (
    STRATEGIES,
    FaultToleranceConfig,
    FtOperator,
    FtReport,
    RankLossProtection,
    solve_fault_tolerant,
)
from repro.ft.plan import (
    PHASES,
    RankFailure,
    RankFailurePlan,
    SlowRank,
    StragglerPlan,
)
from repro.ft.recovery import (
    interpolated_restart,
    local_fingerprints,
    rank_loss_action,
    repair_respawn,
    repair_shrink,
)

__all__ = [
    "PHASES",
    "STRATEGIES",
    "CHECKPOINT_TAG",
    "RankFailure",
    "RankFailurePlan",
    "SlowRank",
    "StragglerPlan",
    "RankFailedError",
    "FaultTolerantComm",
    "CheckpointStore",
    "FaultToleranceConfig",
    "FtOperator",
    "FtReport",
    "RankLossProtection",
    "solve_fault_tolerant",
    "rank_loss_action",
    "local_fingerprints",
    "repair_shrink",
    "repair_respawn",
    "interpolated_restart",
]
