"""Krylov solvers (the Belos layer of the paper's stack).

The paper's experiments use the *single-reduce* GMRES variant
[Swirydowicz et al. 2021] with restart length 30 and a relative residual
tolerance of 1e-7 (Section VII).  This package implements restarted
GMRES with three orthogonalization strategies that differ in the number
of global reductions per iteration -- the quantity that dominates
strong-scaled Krylov performance:

=================  ==========================  ====================
variant            orthogonalization           global reduces/iter
=================  ==========================  ====================
``"mgs"``          modified Gram-Schmidt       ``j + 2``
``"cgs"``          classical Gram-Schmidt      2
``"single_reduce"``  CGS with lagged            1
                   normalization
=================  ==========================  ====================

A preconditioned CG and the *pipelined* CG of Ghysels & Vanroose (one
overlappable reduction per iteration, with residual replacement) cover
the SPD side of Table I's Krylov menu.

:mod:`repro.krylov.block` adds the multi-RHS block variants the serving
layer batches same-pattern tenant requests through: ``k`` independent
Krylov iterations run in lockstep over an ``(n, k)`` block, sharing one
batched SpMV and one batched reduction set per step, with per-column
convergence deflation -- bit-identical per column to the single-RHS
solvers.

Reductions are counted by the ambient :class:`~repro.obs.Tracer`
(``tracer.reduces`` / ``tracer.reduce_doubles``) so the simulated
runtime can price them; a preconditioned CG is included for the SPD
ablations.

:mod:`repro.krylov.driver` is the one place a configuration's ``method``
picks a solver and the one anchored-restart loop; sessions, the elastic
fallback and the serving layer all iterate through it.
"""

from repro.krylov.gmres import gmres, GmresResult
from repro.krylov.cg import cg, CgResult
from repro.krylov.block import (
    BLOCK_ITERATION_TOLERANCE,
    BlockSolveResult,
    block_cg,
    block_gmres,
)
from repro.krylov.pipelined import pipelined_cg, PipelinedCgResult
from repro.krylov.reduce import ReduceCounter
from repro.krylov.status import SolveStatus

__all__ = [
    "BLOCK_ITERATION_TOLERANCE",
    "BlockSolveResult",
    "CgResult",
    "GmresResult",
    "PipelinedCgResult",
    "ReduceCounter",
    "SolveStatus",
    "block_cg",
    "block_gmres",
    "cg",
    "gmres",
    "pipelined_cg",
]
