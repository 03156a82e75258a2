"""The serving wire schema: :class:`SolveRequest` / :class:`SolveResponse`.

A request carries an *operator* (a CSR matrix, or the pattern
fingerprint of one previously registered with the service), one
right-hand side, the tenant identity, the full solver configuration
(:class:`~repro.api.SchwarzConfig` + :class:`~repro.api.KrylovConfig` +
partition), and scheduling hints (deadline in model seconds, priority).
Nothing in the schema assumes a FEM origin: ``coordinates`` /
``dofs_per_node`` / ``nullspace`` are optional extras a tenant supplies
when its operator has non-trivial near-null structure (elasticity's
rigid-body modes); a bare matrix + RHS is a complete request.

A response carries the solution and convergence record plus the serving
metrics (queue wait, batch width, modeled service seconds) and the
terminal :class:`~repro.krylov.status.SolveStatus`.  Both sides
round-trip through plain dicts (:meth:`SolveResponse.to_dict` /
:meth:`SolveResponse.from_dict`), so service callers never touch the
internal result types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.api import KrylovConfig, SchwarzConfig
from repro.krylov import SolveStatus
from repro.sparse.csr import CsrMatrix

__all__ = ["SolveRequest", "SolveResponse"]


@dataclass
class SolveRequest:
    """One tenant's solve: operator + RHS + config + scheduling hints.

    Attributes
    ----------
    rhs:
        The right-hand side (1-D, length = operator rows).
    matrix:
        The operator as a :class:`~repro.sparse.csr.CsrMatrix`.  Exactly
        one of ``matrix`` / ``matrix_fingerprint`` must be set.
    matrix_fingerprint:
        Pattern fingerprint of an operator previously registered with
        :meth:`~repro.serve.service.SolverService.register` -- repeat
        tenants ship only the fingerprint and the new RHS.
    tenant:
        Opaque tenant identity (billing / observability attribution).
    config, krylov:
        Preconditioner and Krylov configuration.  ``config.key()`` and
        ``krylov`` are part of the shard key: requests batch together
        only when both match.
    partition:
        Subdomain box (one model rank per subdomain).
    nullspace:
        Explicit near-null-space block for the coarse basis (generic
        escape hatch; overrides the coordinate-based defaults).
    coordinates, dofs_per_node:
        Optional geometric extras for operators that have them (needed
        for rigid-body modes when ``dofs_per_node == 3``); scalar
        algebraic operators leave both at their defaults.
    deadline:
        Model-seconds budget from submission; the response reports
        whether it was met.  None means no deadline.  Under a
        guarded service (``guard=``) the deadline also drives load
        shedding: a request whose deadline is already unmeetable is
        refused (``SolveStatus.SHED``) instead of served late.
    priority:
        Higher serves first among batches with equal deadlines.
    tolerance_budget:
        The loosest relative tolerance this client accepts (must be
        >= ``krylov.rtol``).  Under overload the degradation ladder may
        loosen the batch's tolerance up to the tightest budget present;
        None (default) pins this request -- and any batch containing it
        -- at full tolerance.
    request_id:
        Assigned by the service at submission when None.
    """

    rhs: np.ndarray
    matrix: Optional[CsrMatrix] = None
    matrix_fingerprint: Optional[str] = None
    tenant: str = "default"
    config: SchwarzConfig = field(default_factory=SchwarzConfig)
    krylov: KrylovConfig = field(default_factory=KrylovConfig)
    partition: Tuple[int, int, int] = (2, 2, 1)
    nullspace: Optional[np.ndarray] = None
    coordinates: Optional[np.ndarray] = None
    dofs_per_node: int = 1
    deadline: Optional[float] = None
    priority: int = 0
    tolerance_budget: Optional[float] = None
    request_id: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.matrix is None) == (self.matrix_fingerprint is None):
            raise ValueError(
                "exactly one of matrix= and matrix_fingerprint= must be "
                "set on a SolveRequest"
            )
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        if self.rhs.ndim != 1:
            raise ValueError(
                f"rhs must be 1-D (one request per right-hand side; the "
                f"batcher builds the blocks), got shape {self.rhs.shape}"
            )
        if self.matrix is not None and self.rhs.size != self.matrix.n_rows:
            raise ValueError(
                f"rhs has {self.rhs.size} entries for a "
                f"{self.matrix.n_rows}-row operator"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive model seconds, got "
                f"{self.deadline}"
            )
        if self.tolerance_budget is not None:
            if self.tolerance_budget < self.krylov.rtol:
                raise ValueError(
                    f"tolerance_budget ({self.tolerance_budget:g}) must be "
                    f">= the requested rtol ({self.krylov.rtol:g}); it is "
                    "the loosest tolerance the client accepts"
                )
        self.partition = tuple(int(p) for p in self.partition)


@dataclass
class SolveResponse:
    """Outcome of one served request.

    ``status`` is the public terminal state; callers branch on it (or
    on its string value after :meth:`to_dict`) rather than on any
    internal result type.
    """

    request_id: str
    tenant: str
    status: SolveStatus
    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: List[float]
    final_relres: float
    #: model seconds the request sat queued before its batch started
    queue_wait_seconds: float = 0.0
    #: columns in the batched solve that served this request (1 =
    #: unbatched)
    batch_width: int = 1
    #: model seconds of the batch that served this request (setup
    #: share + block iterations + batched reductions)
    service_seconds: float = 0.0
    #: submission-to-completion model seconds (queue wait + service)
    latency_seconds: float = 0.0
    #: None when the request had no deadline
    deadline_met: Optional[bool] = None
    #: the shard this request was served on (pattern/config identity)
    shard: str = ""
    #: retry attempts beyond the first (0 on the no-fault path)
    retries: int = 0
    #: why the request was shed (``status == SolveStatus.SHED`` only):
    #: ``queue_full`` / ``admission_backlog`` /
    #: ``deadline_passed`` / ``circuit_open``
    shed_reason: Optional[str] = None
    #: :meth:`DegradationDecision.to_dict` of the batch that served this
    #: request, or None when it ran at full quality
    degradation: Optional[dict] = None
    #: error summary of the failing batch (``status == FAILED`` only)
    error: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-ready dict; inverse of :meth:`from_dict`."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": str(self.status),
            "x": np.asarray(self.x, dtype=np.float64).tolist(),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "residual_norms": [float(r) for r in self.residual_norms],
            "final_relres": float(self.final_relres),
            "queue_wait_seconds": float(self.queue_wait_seconds),
            "batch_width": int(self.batch_width),
            "service_seconds": float(self.service_seconds),
            "latency_seconds": float(self.latency_seconds),
            "deadline_met": self.deadline_met,
            "shard": self.shard,
            "retries": int(self.retries),
            "shed_reason": self.shed_reason,
            "degradation": self.degradation,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolveResponse":
        """Rebuild a response from :meth:`to_dict` output.

        ``SolveStatus`` round-trips through its string value -- the
        enum is a ``str`` subclass, so ``SolveStatus(d["status"])``
        recovers the member exactly.
        """
        return cls(
            request_id=d["request_id"],
            tenant=d["tenant"],
            status=SolveStatus(d["status"]),
            x=np.asarray(d["x"], dtype=np.float64),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            residual_norms=[float(r) for r in d["residual_norms"]],
            final_relres=float(d["final_relres"]),
            queue_wait_seconds=float(d["queue_wait_seconds"]),
            batch_width=int(d["batch_width"]),
            service_seconds=float(d["service_seconds"]),
            latency_seconds=float(d["latency_seconds"]),
            deadline_met=d["deadline_met"],
            shard=d.get("shard", ""),
            retries=int(d.get("retries", 0)),
            shed_reason=d.get("shed_reason"),
            degradation=d.get("degradation"),
            error=d.get("error"),
        )
