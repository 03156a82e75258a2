"""Whole-solver phase timings (the numbers in Tables II-VII).

Given a built preconditioner (real numerics), a GMRES result (real
iteration count and reduction count) and a :class:`JobLayout`, build a
*modeled trace*: a :class:`~repro.obs.tracer.Span` tree whose leaves are
the per-rank :class:`~repro.machine.kernels.KernelProfile` objects and
whose modeled seconds come from :mod:`repro.runtime.pricing`.  The
:class:`SolverTimings` the paper tabulates are then *queries* on that
trace:

* **numerical setup time** -- the slowest rank's numeric-setup span
  (local factorization, basis extension, coarse SpGEMM/factorization,
  triangular-solve setup) -- Table III/IV(a)/V(a)/VI;
* **solve (total iteration) time** -- iterations x (slowest rank's
  SpMV + preconditioner apply + halo exchange) + global-reduction cost
  -- Table II/IV(b)/V(b)/VII.

:func:`time_solver` keeps its seed signature; :func:`trace_solver`
additionally returns the priced trace for the exporters (Chrome trace,
phase table) in :mod:`repro.obs.export`.  The SpMV halo is priced from
the decomposition's own interface (:func:`spmv_halo_doubles`), never
from the preconditioner's apply halo -- the Krylov iteration runs in
working precision regardless of the preconditioner's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.machine.kernels import KernelProfile
from repro.obs import Span
from repro.runtime.layout import JobLayout
from repro.runtime.pricing import (
    halo_seconds,
    price_families,
    price_profile,
    reduce_seconds,
)

__all__ = [
    "SolverTimings",
    "block_iteration_seconds",
    "per_rank_iteration_seconds",
    "spmv_halo_doubles",
    "time_solver",
    "trace_solver",
]


def _as_rank_factors(rank_factors, n_ranks: int):
    """Validate per-rank slowdown factors; None means all-healthy.

    Factors multiply a rank's modeled kernel *and* message seconds
    before the slowest-rank max is taken -- a straggler's inflated cost
    lands on the critical path exactly when it is the slowest rank (the
    bulk-synchronous semantics of the paper's runtime).
    """
    if rank_factors is None:
        return None
    f = np.asarray(rank_factors, dtype=np.float64)
    if f.shape != (n_ranks,):
        raise ValueError(
            f"rank_factors must have one entry per rank ({n_ranks}), "
            f"got shape {f.shape}"
        )
    if np.any(f < 1.0):
        raise ValueError("rank slowdown factors must be >= 1")
    return f


def spmv_halo_doubles(dec) -> np.ndarray:
    """Per-rank ghost values imported by one distributed SpMV.

    Rank ``r`` must import every dof referenced by its owned rows but
    owned elsewhere -- the decomposition's own interface, exactly the
    ghost sets :class:`~repro.runtime.distributed.DistributedCsr`
    materializes.  SpMV runs in the Krylov working precision, so this
    count is independent of the preconditioner's precision (the bug the
    cost-model audit guards: deriving it from ``precond.halo_doubles``
    quarter-priced the halo under ``HalfPrecisionOperator``).
    """
    a = dec.a
    owner_of_dof = np.repeat(dec.node_owner, dec.dofs_per_node)
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    row_owner = owner_of_dof[rows]
    col_owner = owner_of_dof[a.indices]
    off = row_owner != col_owner
    pairs = np.unique(
        np.stack([row_owner[off], a.indices[off]], axis=1), axis=0
    )
    return np.bincount(pairs[:, 0], minlength=dec.n_subdomains)


@dataclass
class SolverTimings:
    """Model-second timings of one solver configuration.

    Attributes
    ----------
    setup_seconds:
        *Numerical* setup (slowest rank): phase (b) of the three-phase
        solver structure -- symbolic analysis is reused where the solver
        permits (Tacho, ILU patterns) and repeated where it cannot be
        (SuperLU's pivoting-dependent structure).  This matches what the
        paper tabulates as "Numerical Setup Time".
    first_setup_seconds:
        Setup including the one-time symbolic phase (phase (a) + (b)).
    solve_seconds:
        Total iteration time to convergence.
    iterations:
        Krylov inner iterations (real, from the numerics).
    setup_breakdown:
        Slowest rank's numerical-setup seconds per kernel family
        (Fig. 4).
    per_iteration_seconds:
        One iteration's cost (for amortization analyses).
    trace:
        The priced span tree these numbers were read from (excluded
        from comparison/repr; None for hand-built instances).
    """

    setup_seconds: float
    solve_seconds: float
    iterations: int
    first_setup_seconds: float = 0.0
    setup_breakdown: Dict[str, float] = field(default_factory=dict)
    per_iteration_seconds: float = 0.0
    trace: object = field(default=None, repr=False, compare=False)

    @property
    def total_seconds(self) -> float:
        """Setup + solve (the paper's "total solution time")."""
        return self.setup_seconds + self.solve_seconds


def _spmv_profile(a_nnz_rank: int, n_rank: int) -> KernelProfile:
    prof = KernelProfile()
    prof.add(
        "apply.spmv",
        flops=2.0 * a_nnz_rank,
        bytes=a_nnz_rank * 12.0 + n_rank * 24.0,
        parallelism=float(max(n_rank, 1)),
    )
    return prof


def _spmv_work(dec):
    """Per-rank SpMV work over the owned rows: ``(nnz, rows)`` arrays."""
    a = dec.a
    row_owner = dec.node_owner[
        np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
        // dec.dofs_per_node
    ]
    nnz_per_rank = np.bincount(row_owner, minlength=dec.n_subdomains)
    rows_per_rank = np.asarray([p.size * dec.dofs_per_node for p in dec.node_parts])
    return nnz_per_rank, rows_per_rank


def trace_solver(
    precond,
    layout: JobLayout,
    iterations: int,
    reduces: int,
    reduce_doubles: int,
    rank_factors=None,
) -> Tuple[SolverTimings, Span]:
    """Build the priced trace of one configuration and read its timings.

    The returned :class:`~repro.obs.tracer.Span` root has three phases:

    * ``setup`` -- per-rank ``setup/numeric`` children (profile +
      modeled seconds each; family breakdown annotated), plus per-rank
      ``setup/first`` children for the symbolic-included first setup.
      The phase's own ``modeled_seconds`` is the slowest-rank max.
    * ``solve`` -- per-rank ``apply/iteration`` children (SpMV +
      preconditioner apply + halo exchange for ONE iteration) and one
      ``krylov/allreduce`` child carrying the reduction counters; the
      phase total is ``iterations x slowest-rank + reduction cost``.

    ``rank_factors`` (optional, one multiplier >= 1 per rank) inflates a
    rank's setup and per-iteration seconds before the max -- the
    straggler fault model of :class:`~repro.ft.plan.StragglerPlan`
    priced onto the critical path.  None is the healthy default and
    changes nothing.

    Parameters match :func:`time_solver`.
    """
    dec = precond.dec
    n_ranks = dec.n_subdomains
    if n_ranks != layout.n_ranks:
        raise ValueError(
            f"layout has {layout.n_ranks} ranks but the decomposition has "
            f"{n_ranks} subdomains"
        )
    factors = _as_rank_factors(rank_factors, n_ranks)

    root = Span("solver")
    root.annotate(n_ranks=n_ranks, iterations=iterations)

    nnz_per_rank, rows_per_rank = _spmv_work(dec)

    # ---- setup: slowest rank; "numerical setup" = phase (b) ----
    setup = root.child("setup")
    setup_costs = []
    first_costs = []
    breakdowns = []
    for r in range(n_ranks):
        factor = 1.0 if factors is None else float(factors[r])
        prof = precond.rank_setup_profile(r, refactorization=True)
        cost = price_profile(prof, layout) * factor
        fams = price_families(prof, layout)
        sp = setup.child("setup/numeric", rank=r)
        sp.add_profile(prof)
        sp.modeled_seconds = cost
        sp.annotate(families=fams)
        if factor != 1.0:
            sp.annotate(slow_factor=factor)
        setup_costs.append(cost)
        breakdowns.append(fams)

        first = precond.rank_setup_profile(r, refactorization=False)
        first_cost = price_profile(first, layout) * factor
        fp = setup.child("setup/first", rank=r)
        fp.add_profile(first)
        fp.modeled_seconds = first_cost
        first_costs.append(first_cost)
    worst = int(np.argmax(setup_costs))
    setup_seconds = float(setup_costs[worst])
    first_setup_seconds = float(max(first_costs))
    setup.modeled_seconds = setup_seconds
    setup.annotate(worst_rank=worst, first_setup_seconds=first_setup_seconds)

    # ---- one iteration: slowest rank's spmv + apply, plus comm ----
    solve = root.child("solve")
    iter_costs = []
    # the SpMV halo is the decomposition's own interface: it runs in the
    # Krylov working precision, independent of the preconditioner's
    # (a HalfPrecisionOperator halves only the *apply* halo payload)
    spmv_halo = spmv_halo_doubles(dec)
    for r in range(n_ranks):
        factor = 1.0 if factors is None else float(factors[r])
        prof = _spmv_profile(int(nnz_per_rank[r]), int(rows_per_rank[r]))
        prof.extend(precond.rank_apply_profile(r))
        c = price_profile(prof, layout)
        c += halo_seconds(layout, precond.halo_doubles(r))
        c += halo_seconds(layout, int(spmv_halo[r]))  # spmv halo
        c *= factor
        sp = solve.child("apply/iteration", rank=r)
        sp.add_profile(prof)
        sp.modeled_seconds = c
        sp.count("halo_doubles", float(precond.halo_doubles(r)))
        sp.count("spmv_halo_doubles", float(spmv_halo[r]))
        if factor != 1.0:
            sp.annotate(slow_factor=factor)
        iter_costs.append(c)
    per_iter = float(max(iter_costs)) if iter_costs else 0.0

    reduce_cost = reduce_seconds(layout, reduces, reduce_doubles)
    red = solve.child("krylov/allreduce")
    red.count("reduces", float(reduces))
    red.count("reduce_doubles", float(reduce_doubles))
    red.modeled_seconds = reduce_cost

    solve_seconds = iterations * per_iter + reduce_cost
    solve.modeled_seconds = solve_seconds
    solve.annotate(per_iteration_seconds=per_iter)
    root.modeled_seconds = setup_seconds + solve_seconds

    timings = SolverTimings(
        setup_seconds=setup_seconds,
        solve_seconds=solve_seconds,
        iterations=iterations,
        first_setup_seconds=first_setup_seconds,
        setup_breakdown=breakdowns[worst],
        per_iteration_seconds=per_iter,
        trace=root,
    )
    return timings, root


def per_rank_iteration_seconds(
    precond, layout: JobLayout, width: int = 1, rank_factors=None
) -> np.ndarray:
    """Per-rank cost of ONE lockstep block-Krylov iteration.

    The vector whose max :func:`block_iteration_seconds` returns; the
    elastic :class:`~repro.elastic.policy.ScalingPolicy` reads the whole
    vector as its per-rank utilization signal (which rank is the
    critical path, which is nearly idle).  ``rank_factors`` applies the
    straggler inflation per rank before returning.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    dec = precond.dec
    n_ranks = dec.n_subdomains
    factors = _as_rank_factors(rank_factors, n_ranks)
    nnz_per_rank, rows_per_rank = _spmv_work(dec)
    spmv_halo = spmv_halo_doubles(dec)
    costs = np.zeros(n_ranks, dtype=np.float64)
    for r in range(n_ranks):
        prof = _spmv_profile(int(nnz_per_rank[r]), int(rows_per_rank[r]))
        prof.extend(precond.rank_apply_profile(r))
        c = price_profile(prof.block_scaled(width), layout)
        c += halo_seconds(layout, width * precond.halo_doubles(r))
        c += halo_seconds(layout, width * int(spmv_halo[r]))
        if factors is not None:
            c *= float(factors[r])
        costs[r] = c
    return costs


def block_iteration_seconds(
    precond,
    layout: JobLayout,
    width: int,
    rank_factors=None,
    exclude_ranks=(),
) -> float:
    """Slowest-rank cost of ONE lockstep block-Krylov iteration.

    The serving layer prices a batched multi-RHS solve with this: every
    compute kernel of the iteration (SpMV + preconditioner apply) is
    :meth:`~repro.machine.kernels.Kernel.block_scaled` by the active
    block width -- ``width``-fold flops, bytes and parallelism under a
    *shared* launch count -- and the halo payloads carry ``width``
    columns per message.  ``width == 1`` reduces to exactly the
    per-iteration term of :func:`trace_solver` (same kernels, same
    halos), so unbatched serving and batch-of-one agree by
    construction.  The global-reduction term is *not* included here; the
    block solvers report their own batched reduction counts, priced
    separately with :func:`~repro.runtime.pricing.reduce_seconds`.

    ``rank_factors`` inflates per-rank costs before the max (straggler
    pricing); ``exclude_ranks`` drops ranks from the max entirely -- the
    bounded-staleness asynchronous Schwarz iteration does not wait for a
    stale rank, so its cost leaves the straggler off the critical path
    until the forced synchronous flush.
    """
    costs = per_rank_iteration_seconds(
        precond, layout, width, rank_factors=rank_factors
    )
    if exclude_ranks:
        keep = np.ones(costs.size, dtype=bool)
        for r in exclude_ranks:
            if 0 <= int(r) < costs.size:
                keep[int(r)] = False
        costs = costs[keep]
    return float(costs.max()) if costs.size else 0.0


def time_solver(
    precond,
    layout: JobLayout,
    iterations: int,
    reduces: int,
    reduce_doubles: int,
    rank_factors=None,
) -> SolverTimings:
    """Assemble phase timings for one configuration.

    Parameters
    ----------
    precond:
        A :class:`~repro.dd.two_level.GDSWPreconditioner` (or the
        half-precision wrapper) whose profile accessors describe the
        per-rank work.
    layout:
        Rank placement / execution spaces.
    iterations, reduces, reduce_doubles:
        From the Krylov result: inner iterations and global-reduction
        counts.
    rank_factors:
        Optional per-rank slowdown multipliers (straggler pricing);
        see :func:`trace_solver`.
    """
    timings, _ = trace_solver(
        precond,
        layout,
        iterations,
        reduces,
        reduce_doubles,
        rank_factors=rank_factors,
    )
    return timings
