"""Elastic, straggler-tolerant runtime.

The paper's solver assumes a fixed, healthy rank pool; the serving
north-star does not get one.  This package closes the gap in three
pieces:

* :mod:`repro.elastic.async_schwarz` -- bounded-staleness asynchronous
  restricted additive Schwarz: a preconditioner wrapper that lets a
  straggler's halo data lag up to ``max_staleness`` iterations (keeping
  the slow rank off the modeled critical path), with a
  :class:`~repro.resilience.detect.KrylovGuard`-style watchdog that
  forces a synchronous flush and a re-anchored bulk-synchronous
  fallback when staleness or stagnation exceeds budget.
* :mod:`repro.elastic.policy` -- the load/health-driven
  :class:`ScalingPolicy`: watches per-rank modeled utilization and the
  serve-layer backlog, and invokes planned shrink
  (:meth:`~repro.dd.decomposition.Decomposition.merge_into_neighbor`)
  or respawn (:meth:`~repro.dd.decomposition.Decomposition.split_subdomain`)
  repartitions, billing the repartition cost against projected backlog
  relief.
* :mod:`repro.elastic.bench` -- the ``elastic-chaos`` gate: a straggler
  + load-surge trace where the elastic arm must beat the static arm's
  makespan at zero SLO violations, while no-trigger runs stay
  bit-identical to plain solves.

The straggler *fault model* itself is the ``slow_rank`` kind of the one
seeded :class:`repro.resilience.inject.FaultPlan`, beside its
``rank_loss`` sibling; pricing in :mod:`repro.runtime.timings`
(``rank_factors=`` / ``exclude_ranks=``).
"""

from repro.elastic.async_schwarz import (
    AsyncSolveResult,
    BoundedStalenessSchwarz,
    StalenessGuard,
    async_solve_seconds,
    solve_async,
)
from repro.elastic.policy import ElasticConfig, ScalingDecision, ScalingPolicy

__all__ = [
    "AsyncSolveResult",
    "BoundedStalenessSchwarz",
    "ElasticConfig",
    "ScalingDecision",
    "ScalingPolicy",
    "StalenessGuard",
    "async_solve_seconds",
    "solve_async",
]
