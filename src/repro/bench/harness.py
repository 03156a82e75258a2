"""Numerics/pricing harness shared by all benchmark targets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.api import KrylovConfig, SchwarzConfig, SolverSession
from repro.fem import elasticity_3d, rigid_body_modes
from repro.machine.spec import CpuSpec, GpuSpec, MachineSpec
from repro.reuse.cache import LruDict, get_artifact_cache
from repro.runtime.layout import JobLayout
from repro.runtime.timings import SolverTimings, time_solver

__all__ = [
    "model_machine",
    "rank_grid",
    "weak_scaled_problem",
    "strong_scaled_problem",
    "NumericsRecord",
    "run_numerics",
    "price_run",
    "audit_record",
    "clear_cache",
]


def model_machine() -> MachineSpec:
    """The scaled Summit-like node: 8 CPU cores + 2 GPUs.

    The paper's node (42 cores + 6 GPUs) is scaled down so every table
    point stays laptop-feasible; MPS factors 1/2/4 play the role of the
    paper's 1..7 (4 ranks/GPU x 2 GPUs = 8 ranks/node recovers the
    CPU decomposition exactly as the paper's 7 x 6 = 42 does).
    """
    return MachineSpec(cpu=CpuSpec(), gpu=GpuSpec(), cores_per_node=8, gpus_per_node=2)


# node-count -> node box (nodes double along x, then y, then z)
_NODE_GRIDS = {1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2), 16: (4, 2, 2)}
# ranks-per-node -> per-node rank box
_RANK_GRIDS = {1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2)}


def rank_grid(nodes: int, ranks_per_node: int) -> Tuple[int, int, int]:
    """The global subdomain box for a (nodes, ranks-per-node) layout."""
    ng = _NODE_GRIDS[nodes]
    rg = _RANK_GRIDS[ranks_per_node]
    return (ng[0] * rg[0], ng[1] * rg[1], ng[2] * rg[2])


# LRU-bounded: a long bench session cycles through many (nodes, e)
# combinations, and assembled problems are the largest objects around
_PROBLEM_CACHE: "LruDict" = LruDict(maxsize=8)


def weak_scaled_problem(nodes: int, elements_per_node_axis: int = 6):
    """Weak-scaling elasticity problem: fixed work per node.

    One node carries an ``e x e x e`` element block (e = 6 by default,
    n = 882 dofs/node); the global grid doubles along an axis per node
    doubling, exactly like the paper's 375K-per-node sequence.
    """
    ng = _NODE_GRIDS[nodes]
    e = elements_per_node_axis
    key = ("weak", nodes, e)
    if key not in _PROBLEM_CACHE:
        _PROBLEM_CACHE[key] = elasticity_3d(e * ng[0], e * ng[1], e * ng[2])
    return _PROBLEM_CACHE[key]


def strong_scaled_problem(elements_per_axis: int = 10):
    """Strong-scaling problem: one fixed global grid (Fig. 5's n = 1M analog)."""
    key = ("strong", elements_per_axis)
    if key not in _PROBLEM_CACHE:
        _PROBLEM_CACHE[key] = elasticity_3d(elements_per_axis)
    return _PROBLEM_CACHE[key]


@dataclass
class NumericsRecord:
    """Cached outcome of one numerics run.

    ``trace`` is the wall-time span tree of the run (setup + solve);
    ``reduces``/``reduce_doubles`` are read from its counters.
    """

    precond: object
    iterations: int
    converged: bool
    reduces: int
    reduce_doubles: int
    n: int
    n_coarse: int
    n_ranks: int
    final_relres: float
    #: terminal :class:`~repro.krylov.status.SolveStatus` of the run
    #: (``"converged"`` / ``"maxiter"`` / ``"breakdown"``)
    status: str = "maxiter"
    trace: object = field(default=None, repr=False, compare=False)
    #: cost-model audit verdict (``repro.verify.CostModelAudit``);
    #: populated lazily by :func:`audit_record`
    audit: object = field(default=None, repr=False, compare=False)


_NUMERICS_CACHE: "LruDict" = LruDict(maxsize=128)

#: the Krylov half of every numerics run
KRYLOV = KrylovConfig(maxiter=2000)


def clear_cache() -> None:
    """Drop all memoized problems, numerics runs, and reuse artifacts."""
    _PROBLEM_CACHE.clear()
    _NUMERICS_CACHE.clear()
    get_artifact_cache().clear()


def run_numerics(
    problem,
    parts: Tuple[int, int, int],
    config: SchwarzConfig,
    cache_key: Optional[Tuple] = None,
) -> NumericsRecord:
    """Build the preconditioner and run GMRES (one session solve); memoized.

    Every run iterates with :data:`KRYLOV`, the paper's single-reduce
    GMRES(30) to 1e-7.

    Parameters
    ----------
    problem:
        An assembled elasticity problem.
    parts:
        Subdomain box ``(px, py, pz)``.
    config:
        Preconditioner options.
    cache_key:
        Extra key distinguishing problems that compare equal; pass the
        generating parameters.
    """
    key = (id(problem) if cache_key is None else cache_key, parts, config)
    if key in _NUMERICS_CACHE:
        return _NUMERICS_CACHE[key]

    # one traced session solve: the trace carries the reduction
    # counters and the wall-time span tree of every instrumented phase
    res = SolverSession(
        problem,
        partition=parts,
        config=config,
        krylov=KRYLOV,
        nullspace=rigid_body_modes(problem.coordinates),
    ).solve()
    rec = NumericsRecord(
        precond=res.precond,
        iterations=res.iterations,
        converged=res.converged,
        reduces=res.reduces,
        reduce_doubles=res.reduce_doubles,
        n=problem.a.n_rows,
        n_coarse=res.n_coarse,
        n_ranks=res.n_ranks,
        final_relres=res.final_relres,
        status=str(res.status),
        trace=res.trace,
    )
    _NUMERICS_CACHE[key] = rec
    return rec


def price_run(record: NumericsRecord, layout: JobLayout) -> SolverTimings:
    """Price a numerics record under a layout (pure arithmetic)."""
    return time_solver(
        record.precond,
        layout,
        record.iterations,
        record.reduces,
        record.reduce_doubles,
    )


def audit_record(record: NumericsRecord):
    """Audit the record's cost model against an executed apply; memoized.

    Runs :func:`repro.verify.audit_cost_model` on the record's
    preconditioner (one distributed SpMV + one apply through the
    simulated MPI layer) and stashes the verdict on ``record.audit`` so
    every table/figure priced from the same numerics shares one audit.
    """
    if record.audit is None:
        from repro.verify import audit_cost_model

        record.audit = audit_cost_model(record.precond)
    return record.audit
