"""Sparse triangular solvers.

The solve phase of every preconditioner application in the paper is
dominated by sparse triangular solves (SpTRSV) with direct or incomplete
factors.  This package implements the four algorithmic variants studied
in Sections V-B.2/V-B.3:

* :mod:`repro.tri.substitution` -- sequential row-by-row substitution
  (the CPU baseline, e.g. SuperLU's internal solver);
* :mod:`repro.tri.levelset` -- level-set (wavefront) scheduled solve, the
  standard fine-grained parallel algorithm [Anderson & Saad];
* :mod:`repro.tri.supernodal` -- supernode-blocked level-set solve
  modelling the Kokkos-Kernels solver of [Yamazaki et al. 2020]: fewer,
  larger kernel launches, hierarchical (team) parallelism;
* :mod:`repro.tri.partitioned_inverse` -- the partitioned-inverse
  transformation [Alvarado et al.] turning the solve into a sequence of
  SpMVs;
* :mod:`repro.tri.jacobi` -- FastSpTRSV, the iterative (Jacobi sweep)
  approximate solve of [Chow & Patel] exposed in Trilinos as FastILU.

Every solver reports a :class:`repro.machine.kernels.KernelTrace` so the
machine model can price it on CPU or GPU execution spaces.

The level-set, supernodal and Jacobi solvers also provide
``block_diag([...])``: the solver of a block-diagonal system built by
concatenating plans the blocks already hold.
:class:`repro.tri.factored.FactoredSolve` describes a complete factored
solve (permutations, scalings and two triangular stages) and merges the
same way -- the one-level Schwarz operator applies all subdomains
through one such merged solve.
"""

from repro.tri.substitution import solve_lower, solve_upper
from repro.tri.levelset import (
    level_schedule,
    LevelScheduledTriangular,
)
from repro.tri.supernodal import (
    SupernodalTriangular,
    SupernodeSchedule,
    detect_supernodes,
)
from repro.tri.partitioned_inverse import PartitionedInverseTriangular
from repro.tri.jacobi import JacobiTriangular
from repro.tri.factored import FactoredSolve

__all__ = [
    "FactoredSolve",
    "JacobiTriangular",
    "LevelScheduledTriangular",
    "PartitionedInverseTriangular",
    "SupernodalTriangular",
    "SupernodeSchedule",
    "detect_supernodes",
    "level_schedule",
    "solve_lower",
    "solve_upper",
]
