"""Multi-tenant solver serving: requests, batching, session pooling.

The paper's MPS experiments (Section VI) share one GPU between MPI
ranks of a *single* solve.  This package applies the same sharing
economics to a *service*: many tenants submit independent solve
requests against a small set of operators, and the service drives the
existing stack for them --

* :mod:`repro.serve.request` -- the wire schema
  (:class:`~repro.serve.request.SolveRequest` /
  :class:`~repro.serve.request.SolveResponse`);
* :mod:`repro.serve.batcher` -- same-pattern coalescing into block
  (multi-RHS) solves;
* :mod:`repro.serve.pool` -- the shard-keyed
  :class:`~repro.api.SolverSession` pool with pin-while-in-use artifact
  protection;
* :mod:`repro.serve.service` -- :class:`~repro.serve.service.SolverService`,
  the modeled-clock request loop;
* :mod:`repro.serve.admission` -- streaming arrival timelines
  (:class:`~repro.serve.admission.ArrivalTrace`), bounded queues and
  deadline-aware load shedding;
* :mod:`repro.serve.guard` -- per-shard circuit breakers, seeded-
  backoff retries, the pressure-driven degradation ladder.  One
  ``SolverService(guard=GuardConfig(...))`` turns admission, breakers,
  retries and degradation on together; their thresholds are module
  constants (docs/serving.md tabulates them) and the only settable
  values are ``breaker_cooldown``, ``backoff_base`` and ``seed``;
* :mod:`repro.serve.bench` -- the tenant-count sweep behind
  ``BENCH_serve.json`` (``python -m repro serve``);
* :mod:`repro.serve.overload` -- the overload chaos bench behind
  ``BENCH_slo.json`` (``python -m repro chaos --suite overload``).

Quick start::

    from repro import laplace_3d
    from repro.serve import SolveRequest, SolverService

    service = SolverService()
    problem = laplace_3d(6, 6, 6)
    fp = service.register(problem.a)
    for tenant in ("a", "b", "c", "d"):
        service.submit(SolveRequest(rhs=problem.b, matrix_fingerprint=fp,
                                    tenant=tenant, partition=(2, 2, 1)))
    for resp in service.drain():        # one width-4 block solve
        print(resp.tenant, resp.status, resp.iterations,
              resp.batch_width, resp.latency_seconds)
"""

from repro.serve.admission import (
    Arrival,
    ArrivalTrace,
    ShardLoadEstimator,
    admission_shed_reason,
)
from repro.serve.batcher import RequestBatch, RequestBatcher, shard_key
from repro.serve.guard import (
    CircuitBreaker,
    DegradationDecision,
    DegradationLadder,
    GuardConfig,
    OneLevelOperator,
    RetryPolicy,
)
from repro.serve.pool import PooledSession, SessionPool
from repro.serve.request import SolveRequest, SolveResponse
from repro.serve.service import (
    OperatorConflictError,
    RegisteredOperator,
    SolverService,
)

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "CircuitBreaker",
    "DegradationDecision",
    "DegradationLadder",
    "GuardConfig",
    "OneLevelOperator",
    "OperatorConflictError",
    "PooledSession",
    "RegisteredOperator",
    "RequestBatch",
    "RequestBatcher",
    "RetryPolicy",
    "SessionPool",
    "ShardLoadEstimator",
    "SolveRequest",
    "SolveResponse",
    "SolverService",
    "admission_shed_reason",
    "shard_key",
]
