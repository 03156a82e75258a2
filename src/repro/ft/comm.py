"""ULFM-style fault-tolerant communicator over :class:`SimComm`.

MPI's User-Level Failure Mitigation (ULFM) proposal defines the
semantics this wrapper simulates: a process death is *not* detected by
the dying rank (it is gone) but by the survivors, whose next
communication operation involving the dead rank returns
``MPI_ERR_PROC_FAILED``.  Collectives fail for everyone; point-to-point
between two survivors keeps working.  The application then repairs the
communicator -- ``MPI_Comm_shrink`` (continue with fewer ranks) or a
respawn/``MPI_Comm_spawn`` cycle (replace the dead process) -- and
resumes.

:class:`FaultTolerantComm` reproduces exactly that surface on top of a
sequential :class:`~repro.runtime.simmpi.SimComm`:

* the ``rank_loss`` specs of a
  :class:`~repro.resilience.inject.FaultPlan` kill ranks at chosen
  (phase, op) points;
* every ``send``/``recv``/``allreduce``/``barrier`` first polls the
  plan, then raises :class:`RankFailedError` -- naming the dead ranks,
  the phase, and the failing operation -- under the ULFM involvement
  rules above;
* :meth:`shrink` / :meth:`respawn` repair the communicator.

The underlying ``SimComm`` calls run with the ambient tracer masked
(``use_tracer(None)``): the fault-tolerance traffic (halo replays,
checkpoints) is *extra* modeled communication that must not perturb the
session tracer's ``reduces``/``messages`` counters -- the fault-free
bit-identity regression pins those against non-FT runs.  The FT layer
instead tallies its own ``ft_failures`` / ``ft_recoveries`` counters
(and the checkpoint layer ``ft_checkpoint_doubles``).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_tracer, use_tracer
from repro.resilience.inject import PHASES, FaultEvent, FaultPlan
from repro.runtime.simmpi import SimComm

__all__ = ["RankFailedError", "FaultTolerantComm", "CHECKPOINT_TAG"]

#: message tag reserved for checkpoint replication traffic
CHECKPOINT_TAG = 7


class RankFailedError(RuntimeError):
    """A communication operation touched a failed rank (ULFM
    ``MPI_ERR_PROC_FAILED``).

    Attributes
    ----------
    dead_ranks:
        Every currently-failed rank (what ``MPIX_Comm_failure_ack`` +
        ``get_acked`` would report).
    phase:
        Solver phase the failing operation belonged to.
    op:
        The operation that surfaced the failure (``send(src=..,dst=..)``
        style).
    """

    def __init__(
        self, dead_ranks: Sequence[int], phase: str, op: str, message: str
    ) -> None:
        super().__init__(message)
        self.dead_ranks: Tuple[int, ...] = tuple(int(r) for r in dead_ranks)
        self.phase = phase
        self.op = op


class FaultTolerantComm:
    """A :class:`SimComm` with ULFM failure semantics and repair.

    Parameters
    ----------
    size:
        Initial rank count.
    fault_plan:
        Scheduled deaths (the ``rank_loss`` specs of a
        :class:`~repro.resilience.inject.FaultPlan`); None never kills
        (but :meth:`kill` still works for tests).  A spec naming a rank
        outside the communicator raises ``ValueError``: it could never
        fire.

    Attributes
    ----------
    base:
        The live underlying :class:`SimComm` (replaced on repair).
    alive:
        Per-rank liveness flags.
    phase:
        Current solver phase (set by the driver via :meth:`set_phase`);
        plan lookups and error messages are keyed on it.
    failures:
        Every death as a :class:`~repro.resilience.inject.FaultEvent`
        (kind ``"rank_loss"``), for the health report.
    ft_failures, ft_recoveries:
        Counters, also tallied onto the ambient tracer under the same
        keys.
    """

    def __init__(self, size: int, fault_plan: Optional[FaultPlan] = None) -> None:
        for spec in fault_plan.faults if fault_plan is not None else ():
            if spec.kind == "rank_loss" and spec.rank >= size:
                raise ValueError(
                    f"{spec.describe()}: rank {spec.rank} is outside the "
                    f"communicator of size {size}"
                )
        self.base = SimComm(size)
        self.alive: List[bool] = [True] * size
        self.fault_plan = fault_plan
        self.phase = "setup"
        self._phase_ops = {p: 0 for p in PHASES}
        self.failures: List[FaultEvent] = []
        self.ft_failures = 0
        self.ft_recoveries = 0
        #: retired SimComms from previous repair epochs (counter history)
        self.retired: List[SimComm] = []

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current rank count (shrinks after :meth:`shrink`)."""
        return self.base.size

    def set_phase(self, phase: str) -> None:
        """Enter a solver phase (``setup`` / ``apply`` / ``reduce``)."""
        if phase not in PHASES:
            raise ValueError(
                f"unknown phase {phase!r}; valid phases: "
                + ", ".join(repr(p) for p in PHASES)
            )
        self.phase = phase

    def dead_ranks(self) -> List[int]:
        """Currently-failed ranks, ascending."""
        return [r for r, ok in enumerate(self.alive) if not ok]

    def n_alive(self) -> int:
        """Surviving rank count."""
        return sum(self.alive)

    # ------------------------------------------------------------------
    def kill(self, rank: int) -> None:
        """Mark ``rank`` failed (the plan's hook; tests call it directly)."""
        if not (0 <= rank < self.size) or not self.alive[rank]:
            return
        self.alive[rank] = False
        self.ft_failures += 1
        event = FaultEvent(
            "rank_loss",
            rank,
            f"rank {rank} died during {self.phase} "
            f"(op {self._phase_ops[self.phase]})",
        )
        self.failures.append(event)
        tr = get_tracer()
        tr.count("ft_failures", 1.0)
        sp = tr.current
        sp.annotate(ft_last_failure=event.detail)

    def _tick(self) -> None:
        """Advance the phase op counter and fire any due deaths."""
        idx = self._phase_ops[self.phase]
        self._phase_ops[self.phase] = idx + 1
        if self.fault_plan is not None:
            for rank in self.fault_plan.due(self.phase, idx):
                self.kill(rank)

    def _raise_failed(self, op: str) -> None:
        dead = self.dead_ranks()
        raise RankFailedError(
            dead,
            self.phase,
            op,
            f"rank(s) {dead} failed: {op} during {self.phase} returned "
            f"MPI_ERR_PROC_FAILED; shrink() or respawn() must repair the "
            f"communicator before further collectives "
            f"({self.n_alive()}/{self.size} ranks alive)",
        )

    def _p2p_check(self, op: str, src: int, dst: int) -> None:
        # ULFM: point-to-point between survivors keeps working; only an
        # endpoint's death surfaces the error
        bad = [
            r for r in (src, dst) if 0 <= r < self.size and not self.alive[r]
        ]
        if bad:
            self._raise_failed(op)

    def _collective_check(self, op: str) -> None:
        # ULFM: a collective over a communicator with any failed rank
        # raises on every survivor
        if self.n_alive() != self.size:
            self._raise_failed(op)

    # -- the SimComm surface -------------------------------------------
    def send(self, src: int, dst: int, payload: Any, tag: int = 0) -> None:
        """Point-to-point send; raises if either endpoint is dead."""
        self._tick()
        self._p2p_check(f"send(src={src}, dst={dst}, tag={tag})", src, dst)
        with use_tracer(None):
            self.base.send(src, dst, payload, tag=tag)

    def recv(self, dst: int, src: int, tag: int = 0) -> Any:
        """Point-to-point receive; raises if either endpoint is dead."""
        self._tick()
        self._p2p_check(f"recv(dst={dst}, src={src}, tag={tag})", src, dst)
        with use_tracer(None):
            return self.base.recv(dst, src, tag=tag)

    def allreduce(self, contributions: List[np.ndarray]) -> np.ndarray:
        """Collective sum; raises on every survivor if any rank is dead."""
        self._tick()
        self._collective_check("allreduce")
        with use_tracer(None):
            return self.base.allreduce(contributions)

    def barrier(self) -> None:
        """Collective barrier; raises if any rank is dead."""
        self._tick()
        self._collective_check("barrier")
        with use_tracer(None):
            self.base.barrier()

    # -- repair ---------------------------------------------------------
    def shrink(self) -> List[int]:
        """Repair by dropping failed ranks (``MPIX_Comm_shrink``).

        Returns the old-rank -> new-rank mapping (-1 for dead ranks).
        The underlying ``SimComm`` is replaced: in-flight messages of
        the failed epoch are discarded (their senders may be dead), and
        the retired communicator is kept for cumulative statistics.
        """
        mapping = []
        new = 0
        for ok in self.alive:
            mapping.append(new if ok else -1)
            new += 1 if ok else 0
        self._retire(SimComm(new))
        return mapping

    def respawn(self) -> List[int]:
        """Repair by replacing failed ranks (spawn + reconnect).

        Rank numbering is preserved -- the replacement process takes
        over the dead rank's slot (and must rebuild its state from a
        checkpoint; that is the driver's job).  Returns the dead ranks
        that were replaced.
        """
        replaced = self.dead_ranks()
        self._retire(SimComm(self.size))
        return replaced

    def _retire(self, new_base: SimComm) -> None:
        self.retired.append(self.base)
        self.base = new_base
        self.alive = [True] * new_base.size
        self.ft_recoveries += 1
        get_tracer().count("ft_recoveries", 1.0)

    # -- statistics -----------------------------------------------------
    def total_counter(self, name: str) -> int:
        """Cumulative op counter across all repair epochs."""
        return sum(
            getattr(c, name) for c in self.retired + [self.base]
        )
