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

Every fault that actually fires is recorded as a :class:`FaultEvent`
(and counted on the ambient tracer as ``resilience_faults``), so a
health report can state exactly what was injected where.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_tracer

__all__ = ["FAULT_KINDS", "COMM_FAULT_KINDS", "FaultSpec", "FaultEvent", "FaultPlan"]

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


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS` or :data:`COMM_FAULT_KINDS`.
    rank:
        Target subdomain (setup/apply faults) or destination rank
        (comm faults).
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
        selects the default.
    src, tag, occurrence:
        Comm-fault channel selector: the ``occurrence``-th message on
        ``(src, rank, tag)`` is dropped/corrupted.
    """

    kind: str
    rank: int = 0
    at_apply: int = 2
    repeat: Optional[bool] = None
    magnitude: Optional[float] = None
    src: int = 0
    tag: int = 0
    occurrence: int = 0

    def __post_init__(self) -> None:
        valid = FAULT_KINDS + COMM_FAULT_KINDS
        if self.kind not in valid:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                + ", ".join(repr(k) for k in valid)
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
        return ", ".join(
            f"{f.kind}@rank{f.rank}" for f in self.faults
        ) or "(empty)"

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
    def _comm_match(self, kind: str, src: int, dst: int, tag: int):
        # seen-counts are keyed by kind as well as channel: a single send
        # consults both msg_drop and msg_corrupt, and each consultation
        # must observe the same occurrence index.
        key = (src, dst, tag)
        seen = self._comm_seen.get((kind, key), 0)
        self._comm_seen[(kind, key)] = seen + 1
        for spec in self.faults:
            if spec.kind != kind:
                continue
            if (spec.src, spec.rank, spec.tag) != key or spec.occurrence != seen:
                continue
            if not self._armed(spec, ("comm", key, seen)):
                continue
            return spec
        return None

    def should_drop(self, src: int, dst: int, tag: int) -> bool:
        """Consume one send; True when a ``msg_drop`` fault eats it."""
        spec = self._comm_match("msg_drop", src, dst, tag)
        if spec is None:
            return False
        self._record(
            spec, f"dropped message {spec.occurrence} on channel "
            f"(src={src}, dst={dst}, tag={tag})"
        )
        return True

    def corrupt_payload(self, src: int, dst: int, tag: int, payload):
        """Corrupt a matched ``msg_corrupt`` payload (NaN overwrite)."""
        spec = self._comm_match("msg_corrupt", src, dst, tag)
        if spec is None or not isinstance(payload, np.ndarray):
            return payload
        payload = payload.copy()
        flat = payload.reshape(-1)
        k = max(1, flat.size // 2)
        pick = self.rng.choice(flat.size, size=k, replace=False)
        flat[pick] = np.nan
        self._record(
            spec, f"corrupted {k}/{flat.size} values of message "
            f"{spec.occurrence} on channel (src={src}, dst={dst}, tag={tag})"
        )
        return payload

    # ------------------------------------------------------------------
    def reset(self) -> "FaultPlan":
        """Fresh copy with the same faults and seed (for paired runs)."""
        return FaultPlan([replace(f) for f in self.faults], seed=self.seed)
