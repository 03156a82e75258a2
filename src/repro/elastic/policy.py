"""Load/health-driven rank scaling decisions.

:class:`ScalingPolicy` is the planner behind the serve layer's elastic
reactions.  It watches two signals:

* per-rank modeled utilization -- the iteration-cost vector from
  :func:`~repro.runtime.timings.per_rank_iteration_seconds`, inflated
  by the active ``slow_rank`` factors of the service's
  :class:`~repro.resilience.inject.FaultPlan`; and
* the backlog -- queued batches and the
  :class:`~repro.serve.load.ShardLoadEstimator`'s per-batch seconds.

From these it emits at most one :class:`ScalingDecision` per call:

* ``scale_around`` -- a straggler holds the critical path; merge its
  subdomain into a neighbor
  (:meth:`~repro.dd.decomposition.Decomposition.merge_into_neighbor`)
  so the slow host drops out of the collective;
* ``scale_out`` -- the queue is backing up; split the heaviest
  subdomain
  (:meth:`~repro.dd.decomposition.Decomposition.split_subdomain`) onto
  a fresh rank;
* ``scale_in`` -- a rank sits nearly idle with an empty queue; merge it
  away and return the capacity.

Every grow/shrink is *billed*: the repartition's modeled setup cost
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


#: subdomain-count bounds the policy may not cross
MIN_RANKS = 2
MAX_RANKS = 8
#: slowdown factor at or above which a rank counts as a straggler
#: worth scaling around
STRAGGLER_FACTOR = 1.5
#: queued batches (same shard) at or above which scale-out is considered
BACKLOG_BATCHES = 4
#: a rank whose share of the critical-path cost is below this (with an
#: empty queue) is a scale-in candidate
IDLE_UTILIZATION = 0.25


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
        ``"scale_around"`` / ``"scale_out"`` / ``"scale_in"`` -- members
        of :data:`repro.resilience.policy.SERVICE_ACTION_KINDS`.
    rank:
        The subdomain acted on: merged away (scale-around / scale-in)
        or split (scale-out).
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
    """Stateful scale-around / scale-out / scale-in planner.

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

        Priority order: straggler (scale-around) beats backlog
        (scale-out) beats idleness (scale-in) -- a straggler *causes*
        backlog, so treating the cause first avoids splitting a
        subdomain whose slowness is the host's fault.
        """
        if clock - self._last_action_clock < self.config.cooldown_seconds:
            return None
        rank_costs = np.asarray(rank_costs, dtype=np.float64)
        n = rank_costs.size
        if n == 0:
            return None
        now = float(rank_costs.max())
        if now <= 0.0:
            return None
        healthy = (
            rank_costs
            if rank_factors is None
            else rank_costs / np.asarray(rank_factors, dtype=np.float64)
        )

        # -- scale-around: a straggler owns the critical path ------------
        if rank_factors is not None and n > MIN_RANKS:
            factors = np.asarray(rank_factors, dtype=np.float64)
            r = int(np.argmax(factors))
            if factors[r] >= STRAGGLER_FACTOR and rank_costs[r] >= now:
                # after merging r away, a neighbor carries both loads
                others = np.delete(healthy, r)
                after = float(others.max()) + float(healthy[r])
                relief_per_batch = batch_seconds * max(0.0, 1.0 - after / now)
                relief = (queued_batches + 1) * relief_per_batch
                if relief > repartition_cost:
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

        # -- scale-out: the queue outruns capacity -----------------------
        if queued_batches >= BACKLOG_BATCHES and n < MAX_RANKS:
            r = int(np.argmax(rank_costs))
            others = np.delete(rank_costs, r)
            second = float(others.max()) if others.size else 0.0
            after = max(second, float(rank_costs[r]) / 2.0)
            relief_per_batch = batch_seconds * max(0.0, 1.0 - after / now)
            relief = queued_batches * relief_per_batch
            if relief > repartition_cost:
                return ScalingDecision(
                    kind="scale_out",
                    rank=r,
                    reason=(
                        f"{queued_batches} batches queued "
                        f"(threshold {BACKLOG_BATCHES}); splitting "
                        f"heaviest rank {r}"
                    ),
                    projected_relief_seconds=relief,
                    repartition_cost_seconds=repartition_cost,
                )

        # -- scale-in: idle capacity with an empty queue -----------------
        if (
            queued_batches == 0
            and n > MIN_RANKS
            and (rank_factors is None or float(np.max(rank_factors)) == 1.0)
        ):
            r = int(np.argmin(healthy))
            if float(healthy[r]) / now < IDLE_UTILIZATION:
                return ScalingDecision(
                    kind="scale_in",
                    rank=r,
                    reason=(
                        f"rank {r} at "
                        f"{float(healthy[r]) / now:.0%} utilization "
                        f"(threshold {IDLE_UTILIZATION:.0%}) with an "
                        "empty queue"
                    ),
                    projected_relief_seconds=0.0,
                    repartition_cost_seconds=repartition_cost,
                )
        return None
