"""Diff sequential numerics against the message-faithful execution.

The package's central shortcut is running the numerics sequentially on
assembled global objects while the distributed layer
(:mod:`repro.runtime.distributed`) exists to prove the shortcut valid.
:func:`diff_executions` makes that proof a first-class verification
artifact: it replays the solver's building blocks through
:class:`~repro.runtime.simmpi.SimComm` and compares, phase by phase and
in causal order,

1. **halo_payloads** -- the ghost values each rank imports are exactly
   the owner's values at the rank's ghost dofs (and nothing is left
   undelivered);
2. **spmv** -- the distributed SpMV equals the sequential one;
3. **precond_apply** -- the rank-local GDSW apply (overlap import,
   local solves, correction export, replicated coarse solve) equals the
   sequential apply;
4. **reduction_counts** -- the distributed solve issues exactly the
   sequential solve's reductions plus one coarse allreduce per
   preconditioner application;
5. **iterates** -- the CG iterates agree to tolerance, iteration by
   iteration.

Each phase runs under a dedicated :mod:`repro.obs` span, and
:attr:`ExecutionDiff.first_divergence` names the first phase (in the
causal order above) that disagrees -- a halo bug surfaces as
``halo_payloads``, not as a mysterious iterate drift three layers up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.dd.wrapper import OperatorWrapper, unwrap
from repro.obs import Span, Tracer, use_tracer
from repro.runtime.distributed import (
    DistributedCsr,
    DistributedVector,
    distributed_cg,
    make_distributed_gdsw_apply,
)
from repro.runtime.simmpi import SimComm
from repro.verify.invariants import InvariantCheck

__all__ = ["PhaseDiff", "ExecutionDiff", "diff_executions"]

#: causal order of the diffed phases (divergence is reported earliest-first)
PHASES = (
    "halo_payloads",
    "spmv",
    "precond_apply",
    "reduction_counts",
    "iterates",
)


@dataclass
class PhaseDiff:
    """Agreement of one phase between the two executions."""

    phase: str
    span: str
    value: float
    tol: float
    ok: bool
    detail: str = ""


@dataclass
class ExecutionDiff:
    """Phase-by-phase comparison result, with its trace."""

    phases: List[PhaseDiff]
    trace: Span

    @property
    def ok(self) -> bool:
        """True when every phase agrees."""
        return all(p.ok for p in self.phases)

    @property
    def first_divergence(self) -> Optional[str]:
        """Name of the first (causally earliest) disagreeing phase."""
        for p in self.phases:
            if not p.ok:
                return p.phase
        return None

    def as_checks(self) -> List[InvariantCheck]:
        """The phases as invariant checks for a verification report."""
        return [
            InvariantCheck(
                f"diff/{p.phase}", p.value, p.tol, p.ok,
                (p.detail + " " if p.detail else "") + f"[span {p.span}]",
            )
            for p in self.phases
        ]

    def summary(self) -> str:
        """One line per phase; flags the first divergence."""
        lines = []
        for p in self.phases:
            mark = "ok " if p.ok else "FAIL"
            lines.append(
                f"[{mark}] {p.phase}: {p.value:.3e} (tol {p.tol:.1e}) {p.detail}"
            )
        head = (
            "executions agree"
            if self.ok
            else f"first divergence: {self.first_divergence}"
        )
        return "\n".join([head] + ["  " + s for s in lines])


class _CountingPrecond(OperatorWrapper):
    """Wraps a preconditioner to count sequential applications."""

    applies = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self.inner.apply(v)


def diff_executions(
    precond,
    b: Optional[np.ndarray] = None,
    rtol: float = 1e-7,
    maxiter: int = 200,
    tol: float = 1e-8,
) -> ExecutionDiff:
    """Replay the solver distributedly and diff it against the sequential run.

    Runs on the matrix the preconditioner was built from (``dec.a`` of
    the unwrapped operator, so half-precision setups compare
    self-consistently) with CG as the Krylov driver -- its identical
    control flow on every rank makes the iterate and reduction-count
    comparisons exact in structure.  ``b`` defaults to a deterministic
    dense vector; ``tol`` bounds the relative elementwise disagreement
    permitted for the floating-point phases (the two executions sum in
    different orders).
    """
    inner = unwrap(precond)
    dec = inner.dec
    a = dec.a
    n = a.n_rows
    n_ranks = dec.n_subdomains
    if b is None:
        b = np.cos(0.7 * np.arange(n)) + 0.1
    xg = np.sin(0.3 * np.arange(n)) + 0.05  # probe vector for the kernels

    phases: List[PhaseDiff] = []
    tracer = Tracer()
    with use_tracer(tracer):
        a_dist = DistributedCsr(a, dec)
        owned = a_dist.owned_dofs
        xd = DistributedVector.from_global(xg, owned)

        with tracer.span("verify/halo_payloads"):
            comm = SimComm(n_ranks)
            full = a_dist.halo_exchange(xd, comm)
            worst = 0.0
            for r, arr in enumerate(full):
                expected = xg[np.concatenate([owned[r], a_dist.ghost_dofs[r]])]
                if arr.size:
                    worst = max(worst, float(np.max(np.abs(arr - expected))))
            undelivered = comm.pending()
            phases.append(
                PhaseDiff(
                    "halo_payloads", "verify/halo_payloads", worst, 0.0,
                    worst == 0.0 and undelivered == 0,
                    f"{comm.sends} messages, {undelivered} undelivered",
                )
            )

        with tracer.span("verify/spmv"):
            comm = SimComm(n_ranks)
            y_dist = a_dist.spmv(xd, comm).to_global(owned, n)
            y_seq = a.matvec(xg)
            scale = max(1.0, float(np.max(np.abs(y_seq))))
            d = float(np.max(np.abs(y_dist - y_seq))) / scale
            phases.append(
                PhaseDiff("spmv", "krylov/spmv", d, tol, d <= tol)
            )

        apply_dist = make_distributed_gdsw_apply(inner, a_dist)
        with tracer.span("verify/precond_apply"):
            comm = SimComm(n_ranks)
            z_dist = apply_dist(xd, comm).to_global(owned, n)
            z_seq = inner.apply(xg)
            scale = max(1.0, float(np.max(np.abs(z_seq))))
            d = float(np.max(np.abs(z_dist - z_seq))) / scale
            phases.append(
                PhaseDiff(
                    "precond_apply", "verify/precond_apply", d, tol, d <= tol
                )
            )

        with tracer.span("verify/krylov"):
            from repro.krylov.cg import cg

            seq_iterates = {}
            counting = _CountingPrecond(inner)
            seq = cg(
                a, b,
                preconditioner=counting,
                rtol=rtol,
                maxiter=maxiter,
                callback=lambda it, x: seq_iterates.__setitem__(it, x.copy()),
            )

            comm = SimComm(n_ranks)
            dist_applies = [0]

            def counting_apply(v, c):
                dist_applies[0] += 1
                return apply_dist(v, c)

            dist_iterates = {}
            bd = DistributedVector.from_global(b, owned)
            _, dist_iters, _ = distributed_cg(
                a_dist, bd, comm,
                rtol=rtol,
                maxiter=maxiter,
                preconditioner=counting_apply,
                callback=lambda it, x: dist_iterates.__setitem__(
                    it, x.to_global(owned, n)
                ),
            )

            # one coarse allreduce per distributed apply, on top of the
            # dot products the sequential solve also issues -- minus the
            # one reduction distributed_cg saves by fusing the initial
            # (r, z) and (r, r) dots into a single multi_dot allreduce
            expected = (
                seq.reduces
                - 1
                + (dist_applies[0] if inner.phi is not None else 0)
            )
            mismatch = abs(comm.allreduces - expected)
            phases.append(
                PhaseDiff(
                    "reduction_counts", "verify/krylov", float(mismatch), 0.0,
                    mismatch == 0 and dist_iters == seq.iterations,
                    f"distributed {comm.allreduces} allreduces vs sequential "
                    f"{seq.reduces} - 1 fused + {dist_applies[0]} coarse; "
                    f"iterations {dist_iters} vs {seq.iterations}",
                )
            )

            worst = 0.0
            first_bad = None
            for it in range(1, min(seq.iterations, dist_iters) + 1):
                scale = max(1.0, float(np.max(np.abs(seq_iterates[it]))))
                d = float(
                    np.max(np.abs(seq_iterates[it] - dist_iterates[it]))
                ) / scale
                if d > tol and first_bad is None:
                    first_bad = it
                worst = max(worst, d)
            phases.append(
                PhaseDiff(
                    "iterates", "verify/krylov", worst, tol,
                    worst <= tol and dist_iters == seq.iterations,
                    f"{min(seq.iterations, dist_iters)} iterations compared"
                    + (
                        f"; first divergence at iteration {first_bad}"
                        if first_bad is not None
                        else ""
                    ),
                )
            )
    tracer.finish()
    return ExecutionDiff(phases, tracer.root)
