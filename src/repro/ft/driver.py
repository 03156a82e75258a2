"""The rank-loss protection: detect, repair, restart.

``SolverSession(policy=FaultToleranceConfig(...))`` runs the session's
one solve pipeline under :class:`RankLossProtection`.  The numerics are
byte-for-byte the session's own; what changes is the *communication*:
every preconditioner application replays its halo import and
coarse-residual allreduce through a
:class:`~repro.ft.comm.FaultTolerantComm`, every Krylov reduction routes
its values through one fault-tolerant ``allreduce``, and the setup phase
replays the overlap import -- so a scheduled process death surfaces
exactly where a distributed run would see it, as a
:class:`~repro.ft.comm.RankFailedError` in the phase a ``rank_loss``
spec of the :class:`~repro.resilience.inject.FaultPlan` names.

The restart loop (:func:`repro.krylov.driver.solve_with_restarts`)
catches the error and calls :meth:`RankLossProtection.recover`, which
walks the rank-loss rung of the escalation ladder
(:mod:`repro.resilience.policy`):

1. drop the dead ranks' checkpoint copies
   (:meth:`CheckpointStore.on_failure` -- buddies keep the replicas);
2. repair the communicator (``shrink`` or ``respawn``, per
   :class:`FaultToleranceConfig`);
3. repair the preconditioner (merge the dead subdomain away, or
   refactorize the dead rank in place with a fingerprint check);
4. replay the setup exchange on the repaired communicator (a second
   scheduled setup death can fire here);
5. interpolated restart from the surviving checkpoint copies
   (:func:`repro.ft.recovery.interpolated_restart`); the loop re-anchors
   the tolerance to the original initial residual.

The communicator (its op counters, the plan's fired deaths) lives as
long as the operator, across ``resolve()``; the checkpoint store and the
report are per solve.

Bit-identity contract: a *fault-free* run produces the same iterates,
residual history and ``reduces``/``reduce_doubles`` as an unprotected
solve -- the FT reductions contribute ``[v, 0, ..., 0]`` (``x + 0.0 ==
x`` bitwise), the FT comm masks the ambient tracer around its own base
ops, and the reductions stay counted by whatever tracer is active (the
route attaches through ``Tracer.reduce_via``).  ``tests/ft`` and
``tests/test_conformance.py`` pin this.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.dd.wrapper import OperatorWrapper, unwrap
from repro.ft.checkpoint import CheckpointStore
from repro.ft.comm import FaultTolerantComm, RankFailedError
from repro.ft.recovery import (
    interpolated_restart,
    local_fingerprints,
    repair_respawn,
    repair_shrink,
)
from repro.krylov.driver import Protection, Repair
from repro.krylov.status import SolveStatus
from repro.obs import get_tracer
from repro.resilience.detect import KrylovGuard
from repro.resilience.engine import HealthReport
from repro.resilience.inject import FaultPlan
from repro.resilience.policy import RecoveryAction, RecoveryPolicy

__all__ = [
    "STRATEGIES",
    "FaultToleranceConfig",
    "FtOperator",
    "FtReport",
    "RankLossProtection",
]

#: valid rank-loss recovery strategies
STRATEGIES = ("shrink", "respawn")

#: rank-loss recoveries one solve may run; one more failure raises
MAX_FAILURES = 4

#: message tag of the apply-phase halo import replay
HALO_TAG = 4
#: message tag of the setup-phase overlap import replay
SETUP_TAG = 5


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Rank-loss protection (``SolverSession(policy=)``).

    The checkpoint cadence is the :class:`~repro.ft.checkpoint.CheckpointStore`
    default and the recovery budget is :data:`MAX_FAILURES`.

    Attributes
    ----------
    fault_plan:
        Scheduled deaths (the ``rank_loss`` specs of a
        :class:`~repro.resilience.inject.FaultPlan`); None runs fully
        protected but fault-free.
    strategy:
        ``"shrink"`` merges a dead subdomain into a neighbor and
        continues with fewer ranks; ``"respawn"`` replaces the dead
        process and rebuilds its state from checkpoint.
    protect:
        False is the control arm: no recovery --
        :class:`~repro.ft.comm.RankFailedError` propagates to the
        caller, demonstrating what an unguarded run does.
    """

    fault_plan: Optional[FaultPlan] = None
    strategy: str = "shrink"
    protect: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown rank-loss strategy {self.strategy!r}; valid "
                "values: " + ", ".join(repr(s) for s in STRATEGIES)
            )

    def protection(self, session=None) -> "RankLossProtection":
        """A fresh protection (the session asks for one per cold build)."""
        return RankLossProtection(self)


class FtOperator(OperatorWrapper):
    """Preconditioner wrapper replaying per-apply FT communication.

    The wrapped operator's numerics are untouched (``apply`` delegates
    to it, sequentially, bit-identically); what this wrapper adds is
    the *communication shape* of one distributed application, moved
    through the fault-tolerant communicator so scheduled deaths fire
    mid-apply:

    * one aggregated halo-import message per rank with a nonempty
      overlap ghost region (tag :data:`HALO_TAG`), and
    * one coarse-residual allreduce when a coarse space exists.

    The cost-model protocol delegates to the wrapped operator, so
    ``SessionResult.timings`` prices an FT run like a plain one.
    """

    protective = True

    def __init__(self, inner, comm: FaultTolerantComm) -> None:
        self.comm = comm
        self.rebind(inner)

    def rebind(self, inner) -> None:
        """Point at a (repaired) operator and derive the comm plans."""
        self.inner = inner
        gdsw = unwrap(inner)
        dec = gdsw.dec
        owner = dec.node_owner
        #: per rank: (peer rank shipping the aggregated halo, ghost dofs)
        self._halo = []
        for r, ns in enumerate(gdsw.one_level.node_sets):
            ghost_nodes = ns[owner[ns] != r]
            dofs = dec.dofs_of_nodes(ghost_nodes)
            neighbors = dec.neighbors_of(r)
            peer = neighbors[0] if neighbors else None
            self._halo.append((peer, dofs))
        self._n_coarse = int(gdsw.n_coarse)
        self._has_coarse = gdsw.phi is not None and self._n_coarse > 0

    def exchange(self, tag: int, payload) -> None:
        """One aggregated ``payload(dofs)`` message per rank with a
        nonempty ghost region, shipped by its halo peer."""
        for r, (peer, dofs) in enumerate(self._halo):
            if peer is not None and dofs.size:
                self.comm.send(peer, r, payload(dofs), tag=tag)
                self.comm.recv(r, peer, tag=tag)

    def apply(self, v: np.ndarray) -> np.ndarray:
        comm = self.comm
        comm.set_phase("apply")
        self.exchange(HALO_TAG, lambda dofs: v[dofs])
        y = self.inner.apply(v)
        if self._has_coarse:
            # the coarse residual enters the replicated coarse solve
            # through one allreduce of n_coarse doubles
            contributions = [
                np.zeros(self._n_coarse) for _ in range(comm.size)
            ]
            comm.allreduce(contributions)
        return y


class _CheckpointHook:
    """GMRES observer taking snapshots on cadence.

    Snapshot point: the first cycle boundary at least ``interval``
    iterations past the previous snapshot (the iterate only
    materializes at cycle ends), shipping the last basis
    vector alongside the owned solution segments.
    """

    def __init__(
        self,
        store: CheckpointStore,
        comm: FaultTolerantComm,
        operator,
        guard: KrylovGuard,
        base_iters: int = 0,
    ) -> None:
        self.store = store
        self.comm = comm
        self.operator = operator
        self.guard = guard
        self.base_iters = base_iters
        self._last_snapshot = base_iters
        self._fingerprints: Optional[List[str]] = None

    def fingerprints(self) -> List[str]:
        if self._fingerprints is None:
            self._fingerprints = local_fingerprints(self.operator)
        return self._fingerprints

    def _maybe_snapshot(self, iters: int, x, basis_tail=None) -> None:
        if iters - self._last_snapshot < self.store.interval:
            return
        if not np.all(np.isfinite(x)):
            return
        self.store.snapshot(
            self.comm, iters, x,
            fingerprints=self.fingerprints(),
            basis_tail=basis_tail,
        )
        self._last_snapshot = iters

    def on_cycle(self, basis, x, estimate, true_norm=None) -> None:
        tail = basis[-1] if len(basis) else None
        self._maybe_snapshot(self.base_iters + self.guard.iters, x, tail)


@dataclass
class FtReport:
    """What the fault-tolerance layer saw and did during one solve.

    Attached to :class:`~repro.api.SessionResult` as ``result.ft``.
    """

    strategy: str
    #: every rank death, as recorded by the communicator
    failures: List[object] = field(default_factory=list)
    recoveries: int = 0
    checkpoints: int = 0
    checkpoint_doubles: int = 0
    #: segments no checkpoint copy survived for (coarse-filled), per
    #: recovery
    lost_segments: List[List[int]] = field(default_factory=list)
    #: residual norm at each interpolated restart
    restart_residuals: List[float] = field(default_factory=list)
    store: Optional[CheckpointStore] = field(default=None, repr=False)

    def modeled_checkpoint_seconds(self, layout) -> float:
        """Modeled replication cost of every snapshot under ``layout``."""
        return self.store.modeled_seconds(layout) if self.store else 0.0

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"fault tolerance ({self.strategy}): "
            f"{len(self.failures)} failure(s), {self.recoveries} "
            f"recovery(ies), {self.checkpoints} checkpoint(s) "
            f"({self.checkpoint_doubles} doubles replicated)"
        ]
        for f in self.failures:
            lines.append(f"  - {f.detail}")
        for i, (lost, rn) in enumerate(
            zip(self.lost_segments, self.restart_residuals)
        ):
            lines.append(
                f"  restart {i + 1}: residual {rn:.3e}, "
                f"coarse-filled segments {lost or 'none'}"
            )
        return "\n".join(lines)


def _setup_exchange(ft_op: FtOperator, comm: FaultTolerantComm) -> None:
    """Replay the setup-phase overlap import through the FT comm.

    One aggregated message per rank with a ghost region (tag
    :data:`SETUP_TAG`) plus a closing barrier -- the communication of
    building the overlapping subdomain matrices.  A death scheduled in
    the ``setup`` phase fires here, *after* the sequential build, so a
    repairable preconditioner exists when the error unwinds (exactly
    the ULFM situation: survivors hold their state, the dead rank's
    contribution is lost).
    """
    comm.set_phase("setup")
    with get_tracer().span("ft/setup_exchange"):
        ft_op.exchange(SETUP_TAG, lambda dofs: np.zeros(1))
        comm.barrier()


class RankLossProtection(Protection):
    """The rank-loss :class:`~repro.krylov.driver.Protection`.

    Per operator lifetime: the fault-tolerant communicator and the
    :class:`FtOperator` replaying through it.  Per solve (opened by
    :meth:`wrap`): the checkpoint store, the action log and the
    :class:`FtReport`.
    """

    def __init__(self, config: FaultToleranceConfig) -> None:
        self.config = config
        #: an unprotected run is the control arm: the error propagates
        self.recoverable = (RankFailedError,) if config.protect else ()
        self.comm: Optional[FaultTolerantComm] = None
        self.ft_op: Optional[FtOperator] = None
        self.store: Optional[CheckpointStore] = None

    @property
    def injecting(self) -> bool:
        return self.config.fault_plan is not None

    @contextmanager
    def context(self):
        """Route the active tracer's reductions through the FT comm."""
        tr = get_tracer()
        previous, tr.reduce_via = tr.reduce_via, self._reduce
        try:
            yield
        finally:
            tr.reduce_via = previous

    def _reduce(self, values: np.ndarray) -> np.ndarray:
        """One Krylov reduction as a collective on the FT communicator.

        Bit-identical routing -- rank 0 contributes the values, every
        other rank zeros, and IEEE-754 guarantees ``v + 0.0 == v``
        bitwise for every finite (and NaN) ``v`` -- but the allreduce
        now *counts as a collective*, so a death scheduled in the
        ``reduce`` phase fires here.
        """
        comm = self.comm
        if comm is None:  # before the comm exists: plain counting
            return values
        comm.set_phase("reduce")
        return comm.allreduce([
            values if r == 0 else np.zeros_like(values, dtype=np.float64)
            for r in range(comm.size)
        ])

    def wrap(self, operator, rung: str):
        ft = self.config
        dec = unwrap(operator).dec
        if self.comm is None:
            self.comm = FaultTolerantComm(dec.n_subdomains, ft.fault_plan)
            self.ft_op = FtOperator(operator, self.comm)
        else:
            self.ft_op.rebind(operator)
        self.store = CheckpointStore(dec)
        self.actions: List[RecoveryAction] = []
        self.detections: List[str] = []
        self.ft_report = FtReport(strategy=ft.strategy, store=self.store)
        self._failures_before = len(self.comm.failures)
        self._recoveries_before = self.comm.ft_recoveries
        failure = None
        if rung != "skip":  # a skipped setup imports no overlap
            try:
                _setup_exchange(self.ft_op, self.comm)
            except self.recoverable as exc:
                failure = exc
        return self.ft_op, failure

    def watchdog(self) -> KrylovGuard:
        """A pure recorder: the restart loop reads its ``iters`` and
        ``history`` when an attempt dies mid-iteration."""
        return KrylovGuard(stall_window=0)

    def observer(self, operator, watchdog, iterations: int):
        return _CheckpointHook(
            self.store, self.comm, operator, watchdog, base_iters=iterations
        )

    def recover(self, err, ft_op, a, b) -> Optional[Repair]:
        """One full pass of the rank-loss rung.

        May itself raise :class:`RankFailedError` if another scheduled
        death fires during the repair's setup exchange (the restart
        loop calls again).  None -- the error propagates -- once the
        failure budget is spent.
        """
        ft, comm, store = self.config, self.comm, self.store
        if not isinstance(err, RankFailedError):
            return None  # a numerical breakdown is not this policy's to fix
        if comm.ft_failures > MAX_FAILURES:
            return None
        operator = ft_op.inner
        dead = list(err.dead_ranks)
        self.detections.append(
            f"rank loss detected: {err.op} during {err.phase} raised "
            f"MPI_ERR_PROC_FAILED for rank(s) {dead}"
        )
        with get_tracer().span("ft/recovery") as sp:
            sp.annotate(
                dead_ranks=str(dead), phase=err.phase, strategy=ft.strategy
            )
            # 1. the dead ranks' checkpoint copies died with them
            store.on_failure(dead)
            # 2. + 3. repair communicator and preconditioner
            if ft.strategy == "shrink":
                comm.shrink()
                repaired = repair_shrink(operator, dead)
                if isinstance(operator, OperatorWrapper):
                    # keep the session's precision wrapper
                    operator = copy.copy(operator)
                    operator.inner = repaired
                else:
                    operator = repaired
                detail = (
                    f"rank(s) {dead} lost during {err.phase}; shrank to "
                    f"{comm.size} ranks, merged dead subdomain(s) into "
                    f"neighbors ({repaired.dec.n_subdomains} "
                    f"subdomains remain)"
                )
            else:
                comm.respawn()
                lines = repair_respawn(operator, dead, store)
                detail = (
                    f"rank(s) {dead} lost during {err.phase}; respawned "
                    f"replacement(s): " + "; ".join(lines)
                )
            self.actions.append(
                RecoveryPolicy().rank_loss_rung(dead, ft.strategy, detail)
            )
            ft_op.rebind(operator)
            # 4. the repair's own communication (can re-fail)
            _setup_exchange(ft_op, comm)
            # 5. interpolated restart from the surviving checkpoint copies
            x0, residual_now, lost = interpolated_restart(
                operator, a, b, store
            )
            self.actions.append(
                RecoveryAction(
                    "interpolated_restart",
                    -1,
                    f"restarted from surviving checkpoint copies "
                    f"(coarse-filled segments: {lost or 'none'}); restart "
                    f"residual {residual_now:.3e}, tolerance re-anchored "
                    f"to the original initial residual",
                )
            )
            self.ft_report.lost_segments.append(lost)
            self.ft_report.restart_residuals.append(residual_now)
            # fresh checkpoint epoch on the repaired partition
            store.rebind(unwrap(operator).dec)
        return Repair(ft_op, x0)

    def report(self, result):
        comm, store, report = self.comm, self.store, self.ft_report
        failures = comm.failures[self._failures_before:]
        recoveries = comm.ft_recoveries - self._recoveries_before
        status = result.status
        if result.converged and recoveries:
            status = SolveStatus.RECOVERED
        report.failures = failures
        report.recoveries = recoveries
        report.checkpoints = store.snapshots
        report.checkpoint_doubles = store.doubles_shipped
        health = HealthReport(
            status=str(status),
            faults=failures,
            detections=self.detections,
            actions=self.actions,
            restarts=recoveries,
            refactorizations=sum(
                1 for act in self.actions if act.kind == "rank_respawn"
            ),
        )
        return status, {"health": health, "ft": report}
