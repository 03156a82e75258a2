"""Recovery paths after a rank loss: repair, reconstruct, restart.

Three steps, mirroring what a ULFM application does after
``MPI_ERR_PROC_FAILED``:

1. **communicator repair** -- :meth:`FaultTolerantComm.shrink` or
   :meth:`~repro.ft.comm.FaultTolerantComm.respawn` (driver's choice);
2. **preconditioner repair** --

   * *shrink*: merge the dead subdomain into a neighbor and rebuild
     only what the merge touches
     (:meth:`~repro.dd.two_level.GDSWPreconditioner.remove_subdomain`
     reuses every untouched local factorization; the coarse basis is
     re-derived because the interface moved);
   * *respawn*: the partition is unchanged -- the replacement process
     re-extracts and refactorizes the dead rank's local matrix
     (:func:`repair_respawn`), then asserts the rebuilt factorization
     matches the checkpointed fingerprint;

3. **interpolated restart** -- reassemble the iterate from surviving
   checkpoint copies, fill unrecoverable segments with the coarse-grid
   interpolation ``x0 += Phi A_0^{-1} Phi^T (b - A x0)`` (the coarse
   space is exactly the object that can see across the hole); the
   restart loop (:func:`repro.krylov.driver.solve_with_restarts`) then
   re-anchors the tolerance to the *original* initial residual so the
   recovered solve targets the same absolute accuracy as the fault-free
   one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.dd.wrapper import unwrap
from repro.ft.checkpoint import CheckpointStore
from repro.obs import get_tracer
from repro.resilience.policy import RecoveryAction, RecoveryPolicy
from repro.reuse.fingerprint import values_fingerprint

__all__ = [
    "rank_loss_action",
    "local_fingerprints",
    "repair_shrink",
    "repair_respawn",
    "interpolated_restart",
]


def rank_loss_action(
    dead: List[int], strategy: str, detail: str = ""
) -> RecoveryAction:
    """The rank-loss rung of the escalation ladder as a recorded action.

    Delegates the rung semantics (kind, default wording) to
    :meth:`repro.resilience.policy.RecoveryPolicy.rank_loss_rung` so the
    ladder lives in one place; ``detail`` overrides the wording with
    run-specific context.
    """
    action = RecoveryPolicy().rank_loss_rung(dead, strategy)
    if detail:
        action = RecoveryAction(action.kind, action.rank, detail)
    return action


def local_fingerprints(operator) -> List[str]:
    """Value fingerprints of every rank's overlapping local matrix."""
    one_level = unwrap(operator).one_level
    return [values_fingerprint(a_i) for a_i in one_level.matrices]


def repair_shrink(operator, dead: List[int]):
    """Merge dead subdomains away; returns the repaired preconditioner.

    Multiple simultaneous deaths are merged one at a time, highest rank
    first so earlier merges do not renumber the still-dead ranks.
    """
    inner = unwrap(operator)
    repaired = inner
    for rank in sorted(dead, reverse=True):
        repaired = repaired.remove_subdomain(rank)
    return repaired


def repair_respawn(
    operator, dead: List[int], store: Optional[CheckpointStore] = None
) -> List[str]:
    """Rebuild dead ranks' local factorizations in place (respawn).

    The partition is unchanged; the replacement process re-extracts its
    overlapping matrix (already held, values unchanged) and
    refactorizes.  Returns one detail line per rank; raises
    ``RuntimeError`` if the rebuilt factorization's fingerprint
    disagrees with the checkpointed one (state corruption a silent
    respawn would otherwise carry into the restarted solve).
    """
    one_level = unwrap(operator).one_level
    tr = get_tracer()
    details: List[str] = []
    for rank in dead:
        with tr.span("ft/refactor", rank=rank) as sp:
            a_i = one_level.matrices[rank]
            one_level.locals[rank] = one_level.locals[rank].refactor(a_i)
            sp.annotate(n=int(a_i.n_rows))
        rebuilt = values_fingerprint(a_i)
        expected = store.fingerprint_of(rank) if store is not None else None
        if expected:
            if rebuilt != expected:
                raise RuntimeError(
                    f"respawned rank {rank}: rebuilt local factorization "
                    f"fingerprint {rebuilt[:12]} does not match the "
                    f"checkpointed {expected[:12]}"
                )
            details.append(
                f"rank {rank}: refactorized, fingerprint verified "
                f"({rebuilt[:12]})"
            )
        else:
            details.append(f"rank {rank}: refactorized (no checkpoint "
                           f"fingerprint to verify)")
    return details


def interpolated_restart(
    operator, a, b: np.ndarray, store: CheckpointStore
) -> Tuple[np.ndarray, float, List[int]]:
    """Reconstruct a restart iterate from the surviving checkpoints.

    Returns ``(x0, residual_now, lost_ranks)``:

    * ``x0`` -- surviving checkpoint segments, with unrecoverable
      segments (both copies dead) filled -- and every segment polished
      -- by one coarse-grid correction on the *repaired* operator;
    * ``residual_now`` -- the restart residual norm (reporting);
    * ``lost_ranks`` -- segments no checkpoint copy survived for.
    """
    tr = get_tracer()
    with tr.span("ft/restart") as sp:
        x0, lost, ckpt_it = store.restore_x(a.n_rows)
        inner = unwrap(operator)
        r = b - a.matvec(x0)
        if inner.phi is not None:
            # coarse-grid interpolation: the only component with global
            # support, so it fills the lost segments with the
            # energy-minimizing interpolant of the surviving state
            vc = inner.phi.rmatvec(r)
            x0 = x0 + inner.phi.matvec(inner.coarse.apply(vc))
            r = b - a.matvec(x0)
        residual_now = float(np.linalg.norm(r))
        sp.annotate(
            checkpoint_iteration=int(ckpt_it),
            lost_ranks=str(lost),
            restart_residual=residual_now,
        )
        tr.count("ft_restarts", 1.0)
    return x0, residual_now, lost
