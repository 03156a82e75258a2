"""Sparse direct solvers with the three-phase Trilinos structure.

The paper evaluates two direct solvers for the local overlapping
subdomain and coarse problems (Section V-B.1):

* **SuperLU** -- left-looking sparse LU with partial pivoting, CPU-only.
  Reproduced by :class:`repro.direct.gp_lu.GilbertPeierlsLU`: the
  Gilbert--Peierls algorithm SuperLU generalizes is its reference loop,
  and the executed factorization is one right-looking pass with the
  same pivots and factors bit for bit.  Because partial
  pivoting makes the factor structure value-dependent, the symbolic
  setup of the GPU triangular solver must be redone after *every*
  numeric factorization -- the effect dominating Table III(a) and the
  SuperLU bars of Fig. 4.
* **Tacho** -- multifrontal supernodal Cholesky, pivot-free,
  GPU-enabled.  Reproduced by
  :class:`repro.direct.multifrontal.MultifrontalCholesky`: nested
  dissection + elimination-tree symbolic analysis (reusable), dense
  frontal kernels (the cuBLAS/cuSolver analogue is numpy/LAPACK), and a
  level-set schedule over the assembly tree.

All solvers implement the symbolic / numeric / solve phase split of
Section V-A.1, and expose :class:`~repro.machine.kernels.KernelProfile`
objects for each phase so the machine model can price them.
"""

from repro.direct.base import DirectSolver, direct_solver
from repro.direct.gp_lu import GilbertPeierlsLU
from repro.direct.multifrontal import MultifrontalCholesky

__all__ = [
    "DirectSolver",
    "GilbertPeierlsLU",
    "MultifrontalCholesky",
    "direct_solver",
]
