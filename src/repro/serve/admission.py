"""Streaming admission: arrival timelines and load shedding.

PR 6's service was fed by ``submit()`` calls with no notion of *when*
requests arrive: everything queued at the frozen clock, then one
``drain()`` served it all.  This module supplies the missing arrival
side of the serving model:

* :class:`ArrivalTrace` -- a seeded, fully deterministic arrival
  timeline.  Two generators cover the workloads an overloaded solver
  service actually sees: :meth:`ArrivalTrace.poisson` (memoryless
  steady traffic) and :meth:`ArrivalTrace.burst` (steady traffic with
  periodic arrival bursts -- the pattern that fills queues fastest).
  Times are model seconds on the service
  clock; the same ``(kind, rate, n, seed)`` always yields the same
  timeline.
* :func:`admission_shed_reason` -- the guarded service's admission
  decision: bounded per-shard queues (:data:`MAX_QUEUE_DEPTH`) and
  deadline-aware *reject-on-admission* -- when the shard's modeled
  backlog (queued requests times the shard's smoothed per-request
  service seconds) already exceeds :data:`BACKLOG_FACTOR` times the
  arriving request's deadline, the request is shed immediately with
  ``SolveStatus.SHED`` instead of being queued to fail slowly.

Admission only ever *refuses* work; it never reorders or alters
admitted requests, so a guarded service whose admission never fires is
bit-identical to one without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "ShardLoadEstimator",
    "admission_shed_reason",
]

#: bound on queued requests per shard; arrivals beyond it are shed with
#: reason ``"queue_full"``
MAX_QUEUE_DEPTH = 64
#: reject-on-admission threshold: shed when the shard's modeled backlog
#: exceeds this many times the arriving request's deadline
BACKLOG_FACTOR = 1.5
#: weight of the newest batch in the load estimator's moving averages
EWMA_ALPHA = 0.5


@dataclass(frozen=True)
class Arrival:
    """One point of an arrival timeline: a model-clock stamp + tenant."""

    time: float
    tenant: str
    index: int


class ArrivalTrace:
    """A seeded arrival timeline (see the generator classmethods).

    Attributes
    ----------
    arrivals:
        Time-ordered :class:`Arrival` records.
    kind:
        Generator name (``"poisson"`` / ``"burst"``).
    seed, rate:
        The generator inputs, kept for reporting.
    """

    def __init__(
        self, arrivals: List[Arrival], kind: str, rate: float, seed: int
    ) -> None:
        self.arrivals = sorted(arrivals, key=lambda a: (a.time, a.index))
        self.kind = kind
        self.rate = float(rate)
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    def bind(self, factory: Callable[[Arrival], object]) -> List[Tuple[float, object]]:
        """Materialize ``(time, SolveRequest)`` pairs via ``factory``.

        ``factory`` receives each :class:`Arrival` and returns the
        request to submit at that instant -- the form
        :meth:`~repro.serve.service.SolverService.run_trace` consumes.
        """
        return [(a.time, factory(a)) for a in self.arrivals]

    # -- generators -----------------------------------------------------
    @classmethod
    def poisson(
        cls, rate: float, n: int, seed: int = 0, tenants: int = 4
    ) -> "ArrivalTrace":
        """``n`` Poisson arrivals at ``rate`` per model second.

        Inter-arrival gaps are iid exponential with mean ``1/rate``;
        tenants rotate round-robin.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.exponential(1.0 / rate, size=n))
        arrivals = [
            Arrival(float(t), f"tenant-{i % max(tenants, 1)}", i)
            for i, t in enumerate(times)
        ]
        return cls(arrivals, "poisson", rate, seed)

    @classmethod
    def burst(
        cls,
        rate: float,
        n: int,
        seed: int = 0,
        tenants: int = 4,
        burst_every: int = 8,
        burst_size: int = 4,
    ) -> "ArrivalTrace":
        """Poisson base traffic with a co-arriving burst every
        ``burst_every`` requests: the burst members share one arrival
        instant (``burst_size`` requests land together), which is what
        actually fills a bounded queue."""
        base = cls.poisson(rate, n, seed=seed, tenants=tenants)
        arrivals: List[Arrival] = []
        i = 0
        for a in base.arrivals:
            arrivals.append(Arrival(a.time, a.tenant, i))
            i += 1
            if i >= n:
                break
            if (i % max(burst_every, 1)) == 0:
                for b in range(burst_size):
                    if i >= n:
                        break
                    arrivals.append(
                        Arrival(a.time, f"tenant-{(a.index + b + 1) % max(tenants, 1)}", i)
                    )
                    i += 1
        return cls(arrivals[:n], "burst", rate, seed)


class ShardLoadEstimator:
    """Smoothed service-time estimates, one pair per shard.

    Two exponentially-weighted moving averages per shard:

    * **per-request** seconds (``batch_seconds / batch_width``) -- the
      *serial* drain model behind admission backlog estimates: an
      upper bound that ignores batching, which is exactly the
      conservatism an admission decision wants;
    * **per-batch** seconds (raw ``batch_seconds``) -- the *flat-cost*
      model: a batched block solve shares one kernel-launch schedule
      across columns, so its cost is nearly width-independent.  This
      is the honest estimate of "what will this batch cost", used for
      degradation pressure and for billing failed batches.

    Both average with weight :data:`EWMA_ALPHA` on the newest batch.
    Before the first observation both estimates are 0 (optimistic --
    the first batch always admits, which both seeds the estimates and
    keeps the no-load path untouched).
    """

    def __init__(self) -> None:
        self._per_request: Dict[Tuple, float] = {}
        self._per_batch: Dict[Tuple, float] = {}

    def observe(self, shard: Tuple, batch_seconds: float, width: int) -> None:
        """Fold one executed batch into the shard's estimates."""
        per_req = float(batch_seconds) / max(int(width), 1)
        prev = self._per_request.get(shard)
        if prev is None:
            self._per_request[shard] = per_req
        else:
            self._per_request[shard] = (
                EWMA_ALPHA * per_req + (1.0 - EWMA_ALPHA) * prev
            )
        prev_b = self._per_batch.get(shard)
        if prev_b is None:
            self._per_batch[shard] = float(batch_seconds)
        else:
            self._per_batch[shard] = (
                EWMA_ALPHA * float(batch_seconds)
                + (1.0 - EWMA_ALPHA) * prev_b
            )

    def per_request_seconds(self, shard: Tuple) -> float:
        """Current per-request estimate (0.0 before any observation)."""
        return self._per_request.get(shard, 0.0)

    def batch_seconds(self, shard: Tuple) -> float:
        """Current flat-cost per-batch estimate (0.0 before any
        observation)."""
        return self._per_batch.get(shard, 0.0)

    def backlog_seconds(self, shard: Tuple, queued: int) -> float:
        """Modeled seconds of serving ``queued`` requests on ``shard``."""
        return self.per_request_seconds(shard) * max(int(queued), 0)


def admission_shed_reason(
    estimator: ShardLoadEstimator,
    shard: Tuple,
    queued_in_shard: int,
    deadline: Optional[float],
) -> Optional[str]:
    """Admit (None) or shed (reason string) one arrival.

    ``"queue_full"`` at :data:`MAX_QUEUE_DEPTH` queued requests in the
    shard; ``"admission_backlog"`` when the modeled backlog exceeds
    :data:`BACKLOG_FACTOR` times the request's deadline (requests
    without a deadline are never backlog-shed).  A pure function of the
    queue state and the load estimator, so the decision stream is
    deterministic.
    """
    if queued_in_shard >= MAX_QUEUE_DEPTH:
        return "queue_full"
    if deadline is not None:
        backlog = estimator.backlog_seconds(shard, queued_in_shard)
        if backlog > BACKLOG_FACTOR * deadline:
            return "admission_backlog"
    return None
