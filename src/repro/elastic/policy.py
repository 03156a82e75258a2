"""Health-driven rank scaling decisions.

:class:`ScalingPolicy` is the planner behind the serve layer's elastic
reaction.  It watches two signals:

* per-rank modeled utilization -- the iteration-cost vector from
  :func:`~repro.runtime.timings.per_rank_iteration_seconds`, inflated
  by the active ``slow_rank`` factors of the service's
  :class:`~repro.resilience.inject.FaultPlan`; and
* the backlog -- queued batches and the
  :class:`~repro.serve.load.ShardLoadEstimator`'s per-batch seconds.

From these it emits at most one :class:`ScalingDecision` per call, a
``scale_around``: a straggler holds the critical path, so its subdomain
is merged into a neighbor
(:meth:`~repro.dd.decomposition.Decomposition.merge_into_neighbor`) and
the slow host drops out of the collective.

Every repartition is *billed*: the repartition's modeled setup cost
(only the ranks whose overlapping dof sets actually moved refactor --
:func:`repair_seconds`) must be covered by the projected backlog
relief, otherwise the policy holds still.  That asymmetry is the whole
point: a policy that repartitions on every wobble churns factorizations
faster than it saves iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.runtime.pricing import price_profile

__all__ = [
    "ElasticConfig",
    "ScalingDecision",
    "ScalingPolicy",
    "repair_seconds",
]


#: subdomain count the policy may not go below
MIN_RANKS = 2
#: slowdown factor at or above which a rank counts as a straggler
#: worth scaling around
STRAGGLER_FACTOR = 1.5


@dataclass(frozen=True)
class ElasticConfig:
    """The elastic runtime's one tuned value; its thresholds are the
    module constants above.

    Attributes
    ----------
    cooldown_seconds:
        Minimum model-clock gap between consecutive scaling actions
        (repartition hysteresis), >= 0.
    """

    cooldown_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {self.cooldown_seconds}"
            )


@dataclass(frozen=True)
class ScalingDecision:
    """One planned repartition (not yet executed).

    Attributes
    ----------
    kind:
        ``"scale_around"``, a member of
        :data:`repro.resilience.policy.SERVICE_ACTION_KINDS`.
    rank:
        The subdomain merged away.
    reason:
        Human-readable trigger description (annotated onto the trace).
    projected_relief_seconds:
        Modeled backlog seconds the repartition is expected to save
        over the decision horizon.
    repartition_cost_seconds:
        Modeled setup seconds the repartition costs (moved-rank
        refactorizations).
    """

    kind: str
    rank: int
    reason: str
    projected_relief_seconds: float
    repartition_cost_seconds: float


def repair_seconds(new_precond, old_precond, layout) -> float:
    """Modeled setup cost of repartitioning ``old`` into ``new``.

    Only subdomains whose overlapping dof sets changed pay a numeric
    refactorization (the donor-reuse contract of
    :class:`~repro.dd.schwarz.OneLevelSchwarz`); untouched ranks reuse
    their factorizations as-is.  Refactorizations run concurrently, so
    the cost is the slowest *moved* rank (coarse-level shares included
    via the rank setup profiles).
    """
    donors = {d.tobytes() for d in old_precond.one_level.dof_sets}
    worst = 0.0
    for r, dofs in enumerate(new_precond.one_level.dof_sets):
        if dofs.tobytes() in donors:
            continue
        prof = new_precond.rank_setup_profile(r, refactorization=False)
        worst = max(worst, price_profile(prof, layout))
    return worst


class ScalingPolicy:
    """Stateful scale-around planner.

    One instance per shard; the only state is the cooldown stamp.
    :meth:`decide` is a pure function of its inputs otherwise, so tests
    drive it with synthetic utilization vectors.
    """

    def __init__(self, config: Optional[ElasticConfig] = None) -> None:
        self.config = config or ElasticConfig()
        self._last_action_clock = -math.inf

    def record_action(self, clock: float) -> None:
        """Start the cooldown window at ``clock`` (call after executing)."""
        self._last_action_clock = float(clock)

    def decide(
        self,
        clock: float,
        rank_costs: np.ndarray,
        rank_factors: Optional[np.ndarray],
        queued_batches: int,
        batch_seconds: float,
        repartition_cost: float,
    ) -> Optional[ScalingDecision]:
        """At most one scaling decision for the current shard state.

        Parameters
        ----------
        clock:
            Current model time (cooldown bookkeeping).
        rank_costs:
            Per-rank modeled iteration seconds *including* straggler
            inflation (:func:`~repro.runtime.timings.per_rank_iteration_seconds`
            with ``rank_factors``).
        rank_factors:
            The active straggler factors (None when all healthy).
        queued_batches:
            Batches pending behind the one about to execute.
        batch_seconds:
            The load estimator's per-batch service seconds.
        repartition_cost:
            Modeled cost of the candidate repartition
            (:func:`repair_seconds`; the caller prices the actual
            candidate, the policy only bills it).
        """
        if clock - self._last_action_clock < self.config.cooldown_seconds:
            return None
        rank_costs = np.asarray(rank_costs, dtype=np.float64)
        if rank_factors is None or rank_costs.size <= MIN_RANKS:
            return None
        now = float(rank_costs.max())
        if now <= 0.0:
            return None
        factors = np.asarray(rank_factors, dtype=np.float64)
        healthy = rank_costs / factors
        r = int(np.argmax(factors))
        if factors[r] < STRAGGLER_FACTOR or rank_costs[r] < now:
            return None
        # after merging r away, a neighbor carries both loads
        after = float(np.delete(healthy, r).max()) + float(healthy[r])
        relief_per_batch = batch_seconds * max(0.0, 1.0 - after / now)
        relief = (queued_batches + 1) * relief_per_batch
        if not relief > repartition_cost:
            return None
        return ScalingDecision(
            kind="scale_around",
            rank=r,
            reason=(
                f"rank {r} straggling x{factors[r]:g} "
                f"(threshold x{STRAGGLER_FACTOR:g})"
            ),
            projected_relief_seconds=relief,
            repartition_cost_seconds=repartition_cost,
        )
