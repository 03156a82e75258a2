"""Cost-model audit: replay a priced trace against executed counters.

The timing tables rest on modeled communication volumes -- the halo and
reduction payloads :func:`repro.runtime.timings.trace_solver` attaches
to its priced span tree.  Those numbers are *assumptions* about what a
distributed execution would send; :func:`audit_cost_model` turns them
into *checked* quantities by executing one distributed SpMV and one
distributed preconditioner apply through
:class:`~repro.runtime.simmpi.SimComm` and comparing, per kernel
family, the modeled value counts against what the simulated MPI layer
actually shipped:

* ``comm.spmv_halo`` -- the trace's per-iteration SpMV ghost imports
  vs the tag-1 payloads of one distributed SpMV (this is the family
  that was silently quarter-priced when the model derived it from the
  half-precision preconditioner's apply halo);
* ``comm.overlap_import`` -- the apply-halo counter vs the tag-2
  overlap imports (scaled for emulated-half payloads, which the
  simulator ships as float64);
* ``comm.correction_export`` -- the tag-3 export is structurally twice
  the import (packed ``[positions | values]``);
* ``comm.coarse_allreduce`` -- the modeled coarse-residual reduction
  payload vs the values the apply's allreduce actually reduced.

Disagreeing families are *flagged* (:attr:`CostModelAudit.flagged`) and
fail the audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dd.wrapper import unwrap
from repro.runtime.distributed import (
    DistributedCsr,
    DistributedVector,
    make_distributed_gdsw_apply,
)
from repro.runtime.layout import JobLayout
from repro.runtime.simmpi import SimComm
from repro.runtime.timings import trace_solver
from repro.verify.invariants import InvariantCheck

__all__ = ["AuditEntry", "CostModelAudit", "audit_cost_model"]


@dataclass
class AuditEntry:
    """One kernel family: modeled vs executed communication volume."""

    family: str
    modeled: float
    executed: float
    tol: float
    ok: bool
    note: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.ok else "FLAG"
        s = (
            f"[{mark}] {self.family}: modeled {self.modeled:.6g} vs "
            f"executed {self.executed:.6g} (tol {self.tol:g})"
        )
        return s + (f" -- {self.note}" if self.note else "")


@dataclass
class CostModelAudit:
    """Verdict of one cost-model audit run."""

    entries: List[AuditEntry]

    @property
    def ok(self) -> bool:
        """True when no family disagrees."""
        return all(e.ok for e in self.entries)

    @property
    def flagged(self) -> List[str]:
        """Kernel families whose modeled counts disagree."""
        return [e.family for e in self.entries if not e.ok]

    def as_checks(self) -> List[InvariantCheck]:
        """The entries as invariant checks for a verification report."""
        return [
            InvariantCheck(
                f"audit/{e.family}",
                abs(e.modeled - e.executed),
                e.tol,
                e.ok,
                e.note,
            )
            for e in self.entries
        ]

    def summary(self) -> str:
        """One line per audited family."""
        head = (
            "cost model consistent"
            if self.ok
            else "flagged families: " + ", ".join(self.flagged)
        )
        return "\n".join([head] + ["  " + str(e) for e in self.entries])


def audit_cost_model(
    precond, layout: Optional[JobLayout] = None
) -> CostModelAudit:
    """Audit the priced trace of ``precond`` against an executed apply.

    ``layout`` defaults to one CPU node with one rank per subdomain (the
    layout only prices seconds; the audited *counts* are layout-free).
    """
    inner = unwrap(precond)
    half = inner is not precond
    dec = inner.dec
    n_ranks = dec.n_subdomains
    layout = layout or JobLayout(1, n_ranks)

    # ---- modeled side: one iteration's priced trace ----
    _, trace = trace_solver(precond, layout, 1, 0, 0)
    iter_spans = trace.find("apply/iteration")
    modeled_spmv = sum(
        sp.counters.get("spmv_halo_doubles", 0.0) for sp in iter_spans
    )
    modeled_halo = sum(
        sp.counters.get("halo_doubles", 0.0) for sp in iter_spans
    )
    # the coarse residual is reduced once per apply; the model carries
    # its payload as per-rank comm.coarse_allreduce bytes (halved under
    # emulated half precision, where the payload would be float32)
    value_bytes = 4.0 if half else 8.0
    modeled_coarse = 0.0
    for sp in iter_spans:
        if sp.profile is not None:
            for k in sp.profile:
                if k.name == "comm.coarse_allreduce":
                    modeled_coarse = max(modeled_coarse, k.bytes / value_bytes)

    # ---- executed side: one SpMV + one apply on the simulator ----
    n = dec.a.n_rows
    xg = np.cos(0.3 * np.arange(n)) + 0.1
    a_dist = DistributedCsr(dec.a, dec)
    xd = DistributedVector.from_global(xg, a_dist.owned_dofs)

    comm_spmv = SimComm(n_ranks)
    a_dist.spmv(xd, comm_spmv)
    executed_spmv = float(comm_spmv.channel_doubles(tag=1))

    comm_apply = SimComm(n_ranks)
    make_distributed_gdsw_apply(inner, a_dist)(xd, comm_apply)
    executed_import_raw = float(comm_apply.channel_doubles(tag=2))
    executed_export = float(comm_apply.channel_doubles(tag=3))

    entries = [
        AuditEntry(
            "comm.spmv_halo",
            modeled_spmv,
            executed_spmv,
            0.0,
            modeled_spmv == executed_spmv,
            "ghost values imported by one distributed SpMV "
            "(working precision, independent of the preconditioner's)",
        )
    ]
    # the simulator ships emulated-half payloads as float64 values, so
    # the executed count is scaled down; the model rounds each rank's
    # halved count up, hence the half-value-per-rank tolerance
    scale = 0.5 if half else 1.0
    executed_import = executed_import_raw * scale
    tol_import = 0.5 * n_ranks if half else 0.0
    entries.append(
        AuditEntry(
            "comm.overlap_import",
            modeled_halo,
            executed_import,
            tol_import,
            abs(modeled_halo - executed_import) <= tol_import,
            "overlap values imported by one preconditioner apply"
            + (" (executed float64 count scaled to half)" if half else ""),
        )
    )
    expected_export = 2.0 * executed_import_raw
    entries.append(
        AuditEntry(
            "comm.correction_export",
            expected_export,
            executed_export,
            0.0,
            expected_export == executed_export,
            "packed [positions | values] correction export; the model "
            "prices it within the apply halo",
        )
    )
    if inner.phi is not None:
        executed_coarse = float(comm_apply.reduce_doubles)
        entries.append(
            AuditEntry(
                "comm.coarse_allreduce",
                modeled_coarse,
                executed_coarse,
                0.0,
                modeled_coarse == executed_coarse,
                f"coarse residual values reduced per apply "
                f"({comm_apply.allreduces} allreduce)",
            )
        )
    return CostModelAudit(entries)
