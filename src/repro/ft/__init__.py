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
* deaths are scheduled as ``rank_loss`` specs of the one seeded
  :class:`~repro.resilience.inject.FaultPlan` (phase-keyed, fire once);
* :class:`CheckpointStore` -- diskless in-memory checkpoints with
  neighbor (buddy) replication, priced as halo traffic;
* :func:`~repro.ft.recovery.interpolated_restart` -- restart iterate
  from surviving checkpoint copies, lost segments filled by the GDSW
  coarse interpolation (the shared restart loop re-anchors the
  tolerance to the original residual);
* ``SolverSession(policy=FaultToleranceConfig(...))`` -- turns into a
  :class:`RankLossProtection` threading all of the above through the
  session's one solve pipeline;
* ``python -m repro chaos --suite rank`` -- the chaos matrix
  (kill-phase x strategy) emitting ``BENCH_ft.json`` for the CI
  ``chaos-ft`` gate.
"""

from repro.ft.checkpoint import CheckpointStore
from repro.ft.comm import CHECKPOINT_TAG, FaultTolerantComm, RankFailedError
from repro.ft.driver import (
    STRATEGIES,
    FaultToleranceConfig,
    FtOperator,
    FtReport,
    RankLossProtection,
)
from repro.ft.recovery import (
    interpolated_restart,
    local_fingerprints,
    repair_respawn,
    repair_shrink,
)

__all__ = [
    "STRATEGIES",
    "CHECKPOINT_TAG",
    "RankFailedError",
    "FaultTolerantComm",
    "CheckpointStore",
    "FaultToleranceConfig",
    "FtOperator",
    "FtReport",
    "RankLossProtection",
    "local_fingerprints",
    "repair_shrink",
    "repair_respawn",
    "interpolated_restart",
]
