"""Validated configuration objects of the solver facade.

:class:`SchwarzConfig` (the preconditioner) and :class:`KrylovConfig`
(the iteration) replace keyword soup: every option is validated at
*construction* with an error that lists the valid values, and each
config renders a one-line ``describe()`` used by trace annotations and
as half of a serving shard key.  :mod:`repro.api` re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dd.local_solvers import LocalSolverSpec
from repro.krylov.driver import KRYLOV_METHODS
from repro.krylov.gmres import GMRES_VARIANTS

__all__ = [
    "SchwarzConfig",
    "KrylovConfig",
    "COARSE_VARIANTS",
    "COARSE_SPACES",
    "KRYLOV_METHODS",
    "PRECISIONS",
]

#: valid coarse-space variants of :class:`SchwarzConfig`
COARSE_VARIANTS = ("rgdsw", "gdsw", "agdsw")
#: valid coarse-space families: the FEM-structured GDSW family
#: (selected further by ``variant``) or the fully algebraic spectral
#: space of :mod:`repro.dd.algebraic`
COARSE_SPACES = ("gdsw", "spectral")
#: valid working precisions of :class:`SchwarzConfig`
PRECISIONS = ("double", "single")
_COARSE_SOLVERS = ("direct", "multilevel")


def _check(value: str, valid: Tuple[str, ...], what: str) -> None:
    if value not in valid:
        raise ValueError(
            f"unknown {what} {value!r}; valid values: "
            + ", ".join(repr(v) for v in valid)
        )


@dataclass(frozen=True)
class SchwarzConfig:
    """Preconditioner options (one validated object instead of kwargs).

    Attributes
    ----------
    local:
        Local subdomain solver (validated by
        :class:`~repro.dd.local_solvers.LocalSolverSpec` itself).
    coarse:
        Coarse-matrix solver; None selects the GDSW default (Tacho,
        natural ordering).
    extension:
        Solver for the interior extension solves of Eq. (2); None
        selects the GDSW default (Tacho, ND ordering).  Nonsymmetric
        operators (e.g. upwinded convection-diffusion via ``.mtx``)
        need ``LocalSolverSpec(kind="superlu")`` here and in
        ``local``/``coarse`` -- the Cholesky-based default assumes
        symmetry.
    overlap:
        Algebraic overlap layers (paper: 1).
    variant:
        Coarse space: ``"rgdsw"`` (paper), ``"gdsw"`` or ``"agdsw"``.
    precision:
        ``"double"`` or ``"single"`` (HalfPrecisionOperator wrapping).
    dim:
        Spatial dimension for interface classification.
    adaptive_tol:
        AGDSW eigenvalue threshold (``variant="agdsw"`` only).
    coarse_space:
        Coarse-space family: ``"gdsw"`` (default -- the FEM-structured
        GDSW family, refined by ``variant``) or ``"spectral"`` (the
        fully algebraic SPSD-splitting / GenEO space of
        :mod:`repro.dd.algebraic`; needs no null space or geometry, so
        it accepts arbitrary assembled matrices, e.g. MatrixMarket
        inputs).
    tau:
        Spectral eigenvalue threshold: generalized eigenmodes with
        ``lambda <= tau`` enter the coarse space
        (``coarse_space="spectral"`` only).
    max_vectors_per_subdomain:
        Per-subdomain cap on spectral coarse vectors
        (``coarse_space="spectral"`` only).
    coarse_solver:
        ``"direct"`` or ``"multilevel"`` (the three-level method).
    multilevel_parts:
        Second-level subdomain count for ``coarse_solver="multilevel"``.
    """

    local: LocalSolverSpec = field(default_factory=LocalSolverSpec)
    coarse: Optional[LocalSolverSpec] = None
    extension: Optional[LocalSolverSpec] = None
    overlap: int = 1
    variant: str = "rgdsw"
    precision: str = "double"
    dim: int = 3
    adaptive_tol: float = 1e-2
    coarse_space: str = "gdsw"
    tau: float = 1e-2
    max_vectors_per_subdomain: int = 8
    coarse_solver: str = "direct"
    multilevel_parts: int = 4

    def __post_init__(self) -> None:
        _check(self.variant, COARSE_VARIANTS, "coarse-space variant")
        _check(self.coarse_space, COARSE_SPACES, "coarse-space family")
        _check(self.precision, PRECISIONS, "precision")
        _check(self.coarse_solver, _COARSE_SOLVERS, "coarse solver")
        if self.overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {self.overlap}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.max_vectors_per_subdomain < 1:
            raise ValueError(
                f"max_vectors_per_subdomain must be >= 1, "
                f"got {self.max_vectors_per_subdomain}"
            )

    def describe(self) -> str:
        """One-line summary used by trace annotations and tables.

        Also the preconditioner half of a serving shard key.  Default
        (``coarse_space="gdsw"``) configurations keep the historical
        format byte-for-byte; spectral configurations append their
        selection parameters so they never share a shard with a GDSW
        run.
        """
        base = (
            f"{self.variant} overlap={self.overlap} "
            f"local=[{self.local.describe()}] {self.precision}"
        )
        if self.extension is not None:
            base += f" ext=[{self.extension.describe()}]"
        if self.coarse_space == "spectral":
            base += (
                f" spectral tau={self.tau:g} "
                f"maxvec={self.max_vectors_per_subdomain}"
            )
        return base


@dataclass(frozen=True)
class KrylovConfig:
    """Krylov options (paper defaults: single-reduce GMRES(30), 1e-7).

    Attributes
    ----------
    method:
        ``"gmres"`` (paper), ``"cg"`` or ``"pipelined_cg"``.
    variant:
        GMRES orthogonalization: ``"mgs"``, ``"cgs"`` or
        ``"single_reduce"`` (ignored by the CG methods).
    rtol, restart, maxiter:
        Convergence tolerance, GMRES cycle length, iteration cap.
    """

    method: str = "gmres"
    variant: str = "single_reduce"
    rtol: float = 1e-7
    restart: int = 30
    maxiter: int = 1000

    def __post_init__(self) -> None:
        _check(self.method, KRYLOV_METHODS, "Krylov method")
        _check(self.variant, GMRES_VARIANTS, "GMRES variant")
        if self.rtol <= 0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")

    def describe(self) -> str:
        """One-line summary, mirroring :meth:`SchwarzConfig.describe`.

        Also the Krylov half of a serving shard key: two requests may
        share a batched solve only when this string matches.
        """
        return (
            f"{self.method}[{self.variant}] rtol={self.rtol:g} "
            f"restart={self.restart} maxiter={self.maxiter}"
        )
