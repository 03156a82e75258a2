"""Reproduction of "An Experimental Study of Two-Level Schwarz Domain
Decomposition Preconditioners on GPUs" (Yamazaki, Heinlein,
Rajamanickam; IPDPS 2023).

A from-scratch Python implementation of the FROSch solver stack -- the
GDSW/reduced-GDSW two-level overlapping Schwarz preconditioner with its
full substrate (sparse kernels, direct and incomplete factorizations,
triangular-solve variants, single-reduce GMRES) -- plus a calibrated
Summit-node performance model that regenerates the paper's tables
without GPU hardware.

Quick start (the :class:`~repro.api.SolverSession` facade)::

    from repro import SolverSession, SchwarzConfig, LocalSolverSpec, elasticity_3d

    problem = elasticity_3d(10)
    result = SolverSession(
        problem,
        partition=(2, 2, 2),
        config=SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
    ).solve()
    print(result.iterations, result.reduces)
    print(result.phase_table())

The layered entry points remain available::

    from repro import (
        elasticity_3d, rigid_body_modes, Decomposition,
        GDSWPreconditioner, LocalSolverSpec, SchwarzConfig, gmres,
    )

    problem = elasticity_3d(10)
    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    M = GDSWPreconditioner(
        dec, rigid_body_modes(problem.coordinates),
        SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
    )
    result = gmres(problem.a, problem.b, preconditioner=M, rtol=1e-7)

See DESIGN.md for the architecture and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from repro.api import (
    KrylovConfig,
    SchwarzConfig,
    SessionResult,
    SolverSession,
)
from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    HalfPrecisionOperator,
    LocalSolverSpec,
    OneLevelSchwarz,
)
from repro.fem import (
    StructuredGrid,
    constant_nullspace,
    elasticity_3d,
    laplace_2d,
    laplace_3d,
    rigid_body_modes,
    translations_only,
)
from repro.ft import (
    FaultTolerantComm,
    FaultToleranceConfig,
    FtReport,
    RankFailedError,
)
from repro.krylov import ReduceCounter, SolveStatus, cg, gmres
from repro.obs import Tracer, get_tracer, use_tracer
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    HealthReport,
    ResilienceConfig,
)
from repro.reuse import (
    ArtifactCache,
    PatternChangedError,
    get_artifact_cache,
    use_artifact_cache,
)
from repro.runtime import JobLayout, SolverTimings, time_solver, trace_solver
from repro.serve import SolveRequest, SolveResponse, SolverService
from repro.sparse import CsrMatrix

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "CsrMatrix",
    "Decomposition",
    "FaultPlan",
    "FaultSpec",
    "FaultToleranceConfig",
    "FaultTolerantComm",
    "FtReport",
    "GDSWPreconditioner",
    "HalfPrecisionOperator",
    "HealthReport",
    "JobLayout",
    "KrylovConfig",
    "LocalSolverSpec",
    "OneLevelSchwarz",
    "PatternChangedError",
    "RankFailedError",
    "ReduceCounter",
    "ResilienceConfig",
    "SchwarzConfig",
    "SessionResult",
    "SolveRequest",
    "SolveResponse",
    "SolveStatus",
    "SolverService",
    "SolverSession",
    "SolverTimings",
    "StructuredGrid",
    "Tracer",
    "__version__",
    "cg",
    "constant_nullspace",
    "elasticity_3d",
    "get_artifact_cache",
    "get_tracer",
    "gmres",
    "laplace_2d",
    "laplace_3d",
    "rigid_body_modes",
    "time_solver",
    "trace_solver",
    "translations_only",
    "use_artifact_cache",
    "use_tracer",
]
