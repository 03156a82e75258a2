"""Two-level overlapping Schwarz preconditioners (the FROSch core).

This package is the paper's primary contribution layer: GDSW-type
two-level overlapping Schwarz preconditioners

``M^{-1} = Phi A_0^{-1} Phi^T + sum_i R_i^T A_i^{-1} R_i``    (Eq. 1)

with energy-minimizing coarse bases

``Phi = [ -A_II^{-1} A_IG ; I ] Phi_G``                        (Eq. 2)

built *algebraically* from the assembled matrix, a node partition, and
the Neumann null space:

* :mod:`repro.dd.decomposition` -- nonoverlapping node partitions
  (structured boxes or algebraic recursive bisection) and the condensed
  node graph;
* :mod:`repro.dd.overlap` -- algebraic overlap by ``l`` graph layers;
* :mod:`repro.dd.interface` -- interface identification and its
  decomposition into vertex/edge/face components;
* :mod:`repro.dd.coarse_space` -- GDSW and reduced-GDSW (rGDSW)
  interface bases with partition of unity, and the energy-minimizing
  interior extension;
* :mod:`repro.dd.schwarz` -- the one-level additive Schwarz operator;
* :mod:`repro.dd.two_level` -- :class:`GDSWPreconditioner`, the full
  two-level operator with per-phase kernel profiles, built from one
  validated :class:`SchwarzConfig`;
* :mod:`repro.dd.local_solvers` -- the subdomain/coarse solver menu
  (SuperLU/Tacho/ILU(k)/FastILU x CPU/GPU execution);
* :mod:`repro.dd.precision` -- the HalfPrecisionOperator wrapper
  (Section V-A.2);
* :mod:`repro.dd.adaptive` -- the AGDSW eigen-enrichment for
  heterogeneous coefficients (Section III's adaptive variant);
* :mod:`repro.dd.algebraic` -- the fully algebraic spectral coarse
  space (local SPSD splittings + GenEO-style eigenproblems; needs no
  null space or geometry, so arbitrary assembled matrices work).
"""

from repro.dd.decomposition import Decomposition
from repro.dd.overlap import overlapping_subdomains
from repro.dd.interface import InterfaceAnalysis, analyze_interface
from repro.dd.coarse_space import CoarseSpace, build_coarse_space
from repro.dd.schwarz import OneLevelSchwarz
from repro.dd.two_level import GDSWPreconditioner, SchwarzConfig
from repro.dd.local_solvers import LocalSolverSpec
from repro.dd.precision import HalfPrecisionOperator
from repro.dd.adaptive import build_adaptive_coarse_space
from repro.dd.algebraic import build_spectral_coarse_space

__all__ = [
    "CoarseSpace",
    "build_adaptive_coarse_space",
    "build_spectral_coarse_space",
    "Decomposition",
    "GDSWPreconditioner",
    "HalfPrecisionOperator",
    "InterfaceAnalysis",
    "LocalSolverSpec",
    "OneLevelSchwarz",
    "SchwarzConfig",
    "analyze_interface",
    "build_coarse_space",
    "overlapping_subdomains",
]
