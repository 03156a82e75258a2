"""Seeded fault injection: make the recovery ladder testable.

A :class:`FaultPlan` is a deterministic, seeded description of what to
break during a run.  The resilience engine (and :class:`SimComm`)
consult it at the instrumented points of the stack:

* ``pivot_breakdown`` -- flip the sign of one diagonal entry of one
  subdomain matrix before factorization, forcing the pivot-free
  multifrontal (or ILU) factorization to break down;
* ``fastilu_divergence`` -- amplify the factor iterates after every
  Chow--Patel sweep on one subdomain, forcing the fixed-point iteration
  to diverge exactly the way it does on stiff elasticity blocks;
* ``halo_corrupt`` -- overwrite part of one subdomain's imported halo
  values with NaN at apply time (the sequential analogue of a corrupted
  halo message);
* ``precond_nan`` -- inject a NaN into the output of one preconditioner
  application (a one-shot soft fault);
* ``precision_overflow`` -- scale the input of one half-precision
  preconditioner application beyond float32 range.

Two additional kinds target the simulated MPI layer directly
(``msg_drop`` / ``msg_corrupt``: drop or corrupt a matched
``(src, dst, tag)`` halo message in :class:`~repro.runtime.simmpi.SimComm`).

Two more describe the process itself (:data:`RANK_FAULT_KINDS`):

* ``rank_loss`` -- the rank dies at the ``occurrence``-th communication
  op of solver ``phase`` (one of :data:`PHASES`);
  :class:`~repro.ft.comm.FaultTolerantComm` polls :meth:`FaultPlan.due`;
* ``slow_rank`` -- the rank's kernel and message times inflate by
  ``magnitude`` for the model-time window ``[start, start + duration)``;
  pricing reads :meth:`FaultPlan.factor_at`
  (:mod:`repro.runtime.timings` ``rank_factors=``), ``SimComm`` tallies
  ``delayed`` messages via :meth:`FaultPlan.is_slow_channel`, and
  :mod:`repro.elastic` scales around the slow host.

One more is a fault of the serving layer (:data:`SERVICE_FAULT_KINDS`):

* ``batch_fault`` -- a transient failure of one whole service batch:
  the batch faults when ``seeded_jitter(seed, "fault:" + head_id,
  attempt) < magnitude``, where ``head_id`` is the batch's first
  request and ``attempt`` that request's failure count so far.  The
  decision is a pure hash, so replays are bit-identical, and a retried
  batch re-rolls with the bumped attempt counter -- exactly the failure
  mode retry-with-backoff exists for
  (:meth:`FaultPlan.batch_faulted`).

Every preconditioner or message fault that actually fires is recorded
as a :class:`FaultEvent` (and counted on the ambient tracer as
``resilience_faults``), so a health report can state exactly what was
injected where.  A rank loss is recorded by the communicator that
suffers it (``ft_failures``), a slowdown by the pricing it inflates.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_tracer

__all__ = [
    "FAULT_KINDS",
    "COMM_FAULT_KINDS",
    "RANK_FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "PHASES",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "seeded_jitter",
]

#: session-injectable fault kinds (the CI chaos matrix iterates these)
FAULT_KINDS = (
    "halo_corrupt",
    "pivot_breakdown",
    "precond_nan",
    "fastilu_divergence",
    "precision_overflow",
)
#: faults injected directly into the simulated MPI communicator
COMM_FAULT_KINDS = ("msg_drop", "msg_corrupt")
#: faults of a whole rank: its death, or a window of slowness
RANK_FAULT_KINDS = ("rank_loss", "slow_rank")
#: transient failures of a whole service batch (:mod:`repro.serve`)
SERVICE_FAULT_KINDS = ("batch_fault",)

#: the solver phases a ``rank_loss`` can be scheduled in:
#: ``setup`` -- during preconditioner construction (overlap import);
#: ``apply`` -- during a preconditioner application (halo exchange /
#: coarse allreduce); ``reduce`` -- during a Krylov global reduction.
PHASES = ("setup", "apply", "reduce")

_DEFAULT_MAGNITUDE = {
    "halo_corrupt": 0.5,  # fraction of halo entries overwritten with NaN
    "pivot_breakdown": 1.0,  # scale of the sign-flipped diagonal entry
    "precond_nan": 1.0,  # number of output entries set to NaN
    "fastilu_divergence": 1e16,  # per-sweep amplification of the iterates
    # input scale: far beyond float32 max (~3.4e38) so the overflow
    # survives any well-conditioned preconditioner application, while
    # products with O(1) factors stay well inside float64 range
    "precision_overflow": 1e200,
    "msg_drop": 1.0,
    "msg_corrupt": 1.0,
}


def seeded_jitter(seed: int, request_id: str, attempt: int) -> float:
    """Deterministic value in ``[0, 1)`` for one attempt of one request.

    blake2b over ``(seed, request_id, attempt)``; the same triple maps
    to the same value on every replay, machine, and Python run
    (``PYTHONHASHSEED``-independent).  Drives the ``batch_fault``
    decision and the serving guard's retry jitter.
    """
    h = hashlib.blake2b(
        f"{seed}:{request_id}:{attempt}".encode(), digest_size=8
    ).digest()
    (val,) = struct.unpack(">Q", h)
    return val / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`, :data:`COMM_FAULT_KINDS`,
        :data:`RANK_FAULT_KINDS` or :data:`SERVICE_FAULT_KINDS`.
    rank:
        Target subdomain (setup/apply faults), destination rank (comm
        faults), the rank that dies (``rank_loss``, in the
        communicator's numbering when it fires) or the physical host
        that slows down (``slow_rank``; elastic repartitions remap
        subdomains over hosts).
    at_apply:
        Preconditioner-apply index at which an apply-time fault first
        fires (a few healthy applies first, so recovery has a finite
        iterate to restart from).
    repeat:
        Keep firing after the first occurrence.  Defaults: persistent
        for ``halo_corrupt``/``pivot_breakdown``/``fastilu_divergence``
        (a broken link or subdomain stays broken), one-shot for
        ``precond_nan``/``precision_overflow``/comm faults.
    magnitude:
        Kind-specific severity (see :data:`_DEFAULT_MAGNITUDE`); None
        selects the default.  For ``slow_rank`` it is the slowdown
        factor, required and ``>= 1``; for ``batch_fault`` the
        per-attempt fault probability, required and in ``[0, 1)``.
    src, tag, occurrence:
        Comm-fault channel selector: the ``occurrence``-th message on
        ``(src, rank, tag)`` is dropped/corrupted.  For ``rank_loss``,
        ``occurrence`` is the zero-based op index within ``phase``
        (counted over the whole run, across restarts).
    phase:
        ``rank_loss`` only: one of :data:`PHASES`.
    start, duration:
        ``slow_rank`` only: the window in model seconds on the consuming
        run's clock (``math.inf`` duration: a permanent degradation).
    """

    kind: str
    rank: int = 0
    at_apply: int = 2
    repeat: Optional[bool] = None
    magnitude: Optional[float] = None
    src: int = 0
    tag: int = 0
    occurrence: int = 0
    phase: Optional[str] = None
    start: float = 0.0
    duration: float = math.inf

    def __post_init__(self) -> None:
        valid = (
            FAULT_KINDS + COMM_FAULT_KINDS + RANK_FAULT_KINDS
            + SERVICE_FAULT_KINDS
        )
        if self.kind not in valid:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                + ", ".join(repr(k) for k in valid)
            )
        for name in ("rank", "occurrence", "at_apply"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{self.kind} fault: {name} must be >= 0, "
                    f"got {getattr(self, name)}"
                )
        if self.kind == "rank_loss" and self.phase not in PHASES:
            raise ValueError(
                f"unknown failure phase {self.phase!r}; valid phases: "
                + ", ".join(repr(p) for p in PHASES)
            )
        if self.kind == "slow_rank":
            if self.magnitude is None or self.magnitude < 1.0:
                raise ValueError(
                    f"slowdown factor must be >= 1, got {self.magnitude}"
                )
            if self.start < 0.0:
                raise ValueError(f"start must be >= 0, got {self.start}")
            if self.duration <= 0.0:
                raise ValueError(
                    f"duration must be positive, got {self.duration}"
                )
        if self.kind == "batch_fault" and not (
            self.magnitude is not None and 0.0 <= self.magnitude < 1.0
        ):
            raise ValueError(
                f"batch fault rate must be in [0, 1), got {self.magnitude}"
            )

    @property
    def severity(self) -> float:
        """The effective magnitude (kind default when unset)."""
        return (
            _DEFAULT_MAGNITUDE[self.kind]
            if self.magnitude is None
            else float(self.magnitude)
        )

    @property
    def persistent(self) -> bool:
        """Whether the fault keeps firing after its first occurrence."""
        if self.repeat is not None:
            return bool(self.repeat)
        return self.kind in ("halo_corrupt", "pivot_breakdown", "fastilu_divergence")

    def describe(self) -> str:
        """One-line description of this fault."""
        if self.kind == "rank_loss":
            return f"rank {self.rank} dies at {self.phase} op {self.occurrence}"
        if self.kind == "slow_rank":
            return (
                f"rank {self.rank} x{self.magnitude:g} for "
                + ("ever" if math.isinf(self.duration) else f"{self.duration:g}s")
                + f" from t={self.start:g}"
            )
        if self.kind == "batch_fault":
            return f"batch_fault p={self.magnitude:g}"
        return f"{self.kind}@rank{self.rank}"


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired."""

    kind: str
    rank: int
    detail: str


class FaultPlan:
    """A seeded set of faults plus the record of which ones fired.

    Parameters
    ----------
    faults:
        The :class:`FaultSpec` list (or a single spec).
    seed:
        Seed of the plan's private RNG (selects corrupted entries).
    """

    def __init__(self, faults, seed: int = 0) -> None:
        if isinstance(faults, FaultSpec):
            faults = [faults]
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.fired: List[FaultEvent] = []
        self._spent: set = set()
        self._comm_seen: Dict[Tuple[int, int, int], int] = {}

    @classmethod
    def single(cls, kind: str, rank: int = 0, seed: int = 0, **kw) -> "FaultPlan":
        """One-fault plan (the chaos matrix's unit of work)."""
        return cls([FaultSpec(kind=kind, rank=rank, **kw)], seed=seed)

    def describe(self) -> str:
        """One-line summary for traces and reports."""
        return "; ".join(f.describe() for f in self.faults) or "(empty)"

    # ------------------------------------------------------------------
    def _record(self, spec: FaultSpec, detail: str) -> None:
        self.fired.append(FaultEvent(spec.kind, spec.rank, detail))
        get_tracer().count("resilience_faults", 1.0)

    def _armed(self, spec: FaultSpec, key) -> bool:
        """Is the fault live (one-shot faults fire once per key)?"""
        if spec.persistent:
            return True
        ident = (id(spec), key)
        if ident in self._spent:
            return False
        self._spent.add(ident)
        return True

    # -- setup-time faults ---------------------------------------------
    def corrupt_matrix(self, rank: int, a):
        """Apply ``pivot_breakdown`` faults to one subdomain matrix.

        Flips the sign of the smallest-magnitude diagonal entry (an SPD
        matrix becomes indefinite, breaking pivot-free Cholesky/LDL^T
        while keeping the required diagonal shift small).  Returns the
        (possibly new) matrix.
        """
        for spec in self.faults:
            if spec.kind != "pivot_breakdown" or spec.rank != rank:
                continue
            if not self._armed(spec, ("matrix", rank)):
                continue
            diag = a.diagonal()
            j = int(np.argmin(np.abs(diag) + np.where(diag == 0.0, np.inf, 0.0)))
            data = a.data.copy()
            lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
            sel = lo + int(np.searchsorted(a.indices[lo:hi], j))
            data[sel] = -spec.severity * data[sel]
            a = type(a)(a.indptr, a.indices, data, a.shape)
            self._record(
                spec, f"flipped diagonal entry {j} of subdomain {rank} matrix"
            )
        return a

    def fastilu_perturb(
        self, rank: int, sweep: int, l_vals: np.ndarray, u_vals: np.ndarray
    ):
        """Apply ``fastilu_divergence`` faults after one Jacobi sweep."""
        for spec in self.faults:
            if spec.kind != "fastilu_divergence" or spec.rank != rank:
                continue
            if not self._armed(spec, ("fastilu", rank, sweep)):
                continue
            l_vals = l_vals * spec.severity
            u_vals = u_vals * spec.severity
            if sweep == 0:
                self._record(
                    spec,
                    f"amplifying FastILU sweeps by {spec.severity:g} "
                    f"on subdomain {rank}",
                )
        return l_vals, u_vals

    # -- apply-time faults ---------------------------------------------
    def restrict_fault(
        self, rank: int, apply_index: int, v: np.ndarray, halo_mask: np.ndarray
    ) -> np.ndarray:
        """Apply ``halo_corrupt`` faults to one restricted input vector."""
        for spec in self.faults:
            if spec.kind != "halo_corrupt" or spec.rank != rank:
                continue
            if apply_index < spec.at_apply:
                continue
            if not self._armed(spec, ("halo", rank)):
                continue
            halo = np.flatnonzero(halo_mask)
            if halo.size == 0:
                continue
            k = max(1, int(round(spec.severity * halo.size)))
            pick = self.rng.choice(halo, size=min(k, halo.size), replace=False)
            v = v.copy()
            v[pick] = np.nan
            if apply_index == spec.at_apply:
                self._record(
                    spec,
                    f"corrupting {pick.size}/{halo.size} halo values of "
                    f"subdomain {rank} from apply {apply_index}",
                )
        return v

    def output_fault(self, apply_index: int, y: np.ndarray) -> np.ndarray:
        """Apply ``precond_nan`` faults to one preconditioner output."""
        for spec in self.faults:
            if spec.kind != "precond_nan" or apply_index != spec.at_apply:
                continue
            if not self._armed(spec, ("nan", spec.at_apply)):
                continue
            y = y.copy()
            pick = self.rng.integers(0, y.size, size=max(1, int(spec.severity)))
            y[pick] = np.nan
            self._record(
                spec, f"NaN into preconditioner output at apply {apply_index}"
            )
        return y

    def input_scale(self, apply_index: int) -> float:
        """``precision_overflow`` input scale for one apply (1.0 = none)."""
        for spec in self.faults:
            if spec.kind != "precision_overflow" or apply_index != spec.at_apply:
                continue
            if not self._armed(spec, ("overflow", spec.at_apply)):
                continue
            self._record(
                spec,
                f"scaling preconditioner input by {spec.severity:g} at "
                f"apply {apply_index} (float32 overflow)",
            )
            return spec.severity
        return 1.0

    # -- comm faults (SimComm) -----------------------------------------
    def _comm_match(self, kind: str, key: Tuple[int, int, int], seen: int):
        for spec in self.faults:
            if spec.kind != kind:
                continue
            if (spec.src, spec.rank, spec.tag) != key or spec.occurrence != seen:
                continue
            if not self._armed(spec, ("comm", key, seen)):
                continue
            return spec
        return None

    def on_send(self, src: int, dst: int, tag: int, payload):
        """Consume one send; returns ``(dropped, payload)``.

        One occurrence counter per ``(src, dst, tag)`` channel counts
        every send, dropped or not, so a ``msg_drop`` never shifts the
        message a later ``msg_corrupt`` targets.  A drop pre-empts a
        corruption matched on the same message; a matched ``msg_corrupt``
        NaN-overwrites half of an array payload.
        """
        key = (src, dst, tag)
        seen = self._comm_seen.get(key, 0)
        self._comm_seen[key] = seen + 1
        spec = self._comm_match("msg_drop", key, seen)
        if spec is not None:
            self._record(
                spec, f"dropped message {seen} on channel "
                f"(src={src}, dst={dst}, tag={tag})"
            )
            return True, payload
        spec = self._comm_match("msg_corrupt", key, seen)
        if spec is None or not isinstance(payload, np.ndarray):
            return False, payload
        payload = payload.copy()
        flat = payload.reshape(-1)
        k = max(1, flat.size // 2)
        pick = self.rng.choice(flat.size, size=k, replace=False)
        flat[pick] = np.nan
        self._record(
            spec, f"corrupted {k}/{flat.size} values of message "
            f"{seen} on channel (src={src}, dst={dst}, tag={tag})"
        )
        return False, payload

    # -- rank faults ----------------------------------------------------
    def due(self, phase: str, op_index: int) -> List[int]:
        """Ranks whose ``rank_loss`` triggers at this phase op.

        Each spec fires once.  Nothing is recorded here: the
        communicator that kills the rank owns the event and the
        ``ft_failures`` count.
        """
        return [
            spec.rank
            for spec in self.faults
            if spec.kind == "rank_loss"
            and spec.phase == phase
            and spec.occurrence == op_index
            and self._armed(spec, ("rank_loss",))
        ]

    def factor_at(self, rank: int, t: float) -> float:
        """Slowdown factor of ``rank`` at model time ``t`` (1.0 if healthy).

        Windows are half-open, ``[start, start + duration)``; overlapping
        windows on one rank compose by taking the worst (largest) factor.
        """
        factor = 1.0
        for spec in self.faults:
            if (
                spec.kind == "slow_rank"
                and spec.rank == rank
                and spec.start <= t < spec.start + spec.duration
            ):
                factor = max(factor, spec.magnitude)
        return factor

    @property
    def slow_ranks(self) -> List[int]:
        """Distinct ranks with at least one ``slow_rank`` window (sorted)."""
        return sorted({f.rank for f in self.faults if f.kind == "slow_rank"})

    def is_slow_channel(self, src: int, dst: int, tag: int) -> bool:
        """Whether a message on ``(src, dst, tag)`` touches a slow rank.

        :class:`~repro.runtime.simmpi.SimComm` consults this on every
        delivered send to tally ``delayed`` messages -- the op-count
        evidence that the straggler's traffic really crosses the
        channels the pricing inflates.  Window timing is ignored here:
        the sequential simulator has no clock, so any planned window
        marks the rank's channels.
        """
        slow = self.slow_ranks
        return src in slow or dst in slow

    # -- service faults -------------------------------------------------
    def batch_faulted(self, head_id: str, attempt: int) -> bool:
        """Does the batch headed by ``head_id`` fault on ``attempt``?

        A pure hash per ``batch_fault`` spec (see the module
        docstring); a fired fault is recorded like every other kind.
        """
        for spec in self.faults:
            if spec.kind != "batch_fault":
                continue
            if seeded_jitter(self.seed, f"fault:{head_id}", attempt) < spec.magnitude:
                self._record(
                    spec, f"injected transient fault (batch head "
                    f"{head_id}, attempt {attempt})"
                )
                return True
        return False

    # ------------------------------------------------------------------
    def reset(self) -> "FaultPlan":
        """Fresh copy with the same faults and seed (for paired runs)."""
        return FaultPlan([replace(f) for f in self.faults], seed=self.seed)
