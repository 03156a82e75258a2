"""The multi-tenant solver service.

:class:`SolverService` accepts a stream of
:class:`~repro.serve.request.SolveRequest` objects and drives the
existing solver stack for them:

* requests are resolved to a *shard* (pattern fingerprint + partition +
  config identity) and queued in the
  :class:`~repro.serve.batcher.RequestBatcher`;
* :meth:`drain` executes the queued work: same-shard same-values
  requests coalesce into one block (multi-RHS) GMRES solve
  (:func:`~repro.krylov.block.block_gmres`) through the shard's pooled
  :class:`~repro.api.SolverSession`;
* time is a **modeled clock** in model seconds: each batch advances it
  by its priced service time (setup share + lockstep block iterations +
  batched reductions under the service's
  :class:`~repro.runtime.layout.JobLayout`), and every response carries
  its queue wait and end-to-end latency against that clock.  With
  ``concurrent=True`` the drained batches run side by side as MPS
  tenants: each is priced under ``layout.with_tenants(t)`` (a ``1/t``
  GPU share each) and the round takes the slowest batch, not the sum.

Overload robustness (opt-in; a service constructed without ``guard=``
is bit-identical to the fair-weather service, except that a raising
batch now yields terminal ``FAILED`` responses instead of stranding
every later request):

* ``guard=`` (:class:`~repro.serve.guard.GuardConfig`) bounds the
  per-shard queues and sheds requests whose modeled backlog already
  exceeds their deadline -- at admission and again in queue
  (``SolveStatus.SHED``, :mod:`repro.serve.admission`) -- and adds
  per-shard circuit breakers over the batch outcome stream,
  deadline-capped retry with deterministic seeded backoff for failed
  requests, and the pressure-driven degradation ladder (loosen rtol
  within each request's ``tolerance_budget`` -> half-precision
  operator -> one-level Schwarz), every rung priced on the modeled
  clock and reported in
  :attr:`~repro.serve.request.SolveResponse.degradation`;
* :meth:`run_trace` replays a streaming arrival timeline
  (:class:`~repro.serve.admission.ArrivalTrace`) against the modeled
  clock: arrivals land while earlier batches are still draining, idle
  gaps fast-forward the clock, and every admission decision happens at
  the request's true arrival instant.

Every request is traced: ``serve/admit`` / ``serve/shed`` /
``serve/retry`` / ``serve/degrade`` spans around the admission and
guard decisions, and a ``serve/batch`` span per executed batch (with
``batch_width`` and per-request ``queue_wait_seconds`` counters)
wrapping the block solve's own ``krylov/*`` spans.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import AlgebraicProblem, SolverSession
from repro.krylov import SolveStatus
from repro.krylov.block import BlockSolveResult
from repro.krylov.driver import run_krylov
from repro.obs import get_tracer
from repro.reuse import pattern_fingerprint, values_fingerprint
from repro.runtime.layout import JobLayout
from repro.runtime.pricing import reduce_seconds
from repro.runtime.timings import block_iteration_seconds
from repro.serve.admission import ShardLoadEstimator, admission_shed_reason
from repro.serve.batcher import RequestBatch, RequestBatcher, shard_key
from repro.serve.guard import DegradationDecision, GuardConfig, GuardState
from repro.serve.pool import SessionPool
from repro.serve.request import SolveRequest, SolveResponse

__all__ = ["SolverService", "RegisteredOperator", "OperatorConflictError"]


class OperatorConflictError(ValueError):
    """An operator's extras disagree with the ones registered for its pattern.

    A pattern's pooled sessions are keyed by the pattern and built from
    the registered operator's ``coordinates`` and ``dofs_per_node`` (the
    default coarse space takes its rigid-body modes from them), so one
    service holds one set of extras per pattern.  Raised by
    :meth:`SolverService.submit` for a matrix request and by
    :meth:`SolverService.register` when they would change them.
    """


#: LRU bound of the shard session pool
POOL_SIZE = 8


class RegisteredOperator:
    """One operator known to the service, keyed by pattern fingerprint."""

    __slots__ = ("matrix", "pattern_fp", "values_fp", "coordinates",
                 "dofs_per_node")

    def __init__(self, matrix, coordinates=None, dofs_per_node: int = 1):
        self.matrix = matrix
        self.pattern_fp = pattern_fingerprint(matrix)
        self.values_fp = values_fingerprint(matrix)
        self.coordinates = coordinates
        self.dofs_per_node = int(dofs_per_node)

    def check_extras(self, coordinates, dofs_per_node: int) -> None:
        """Raise :class:`OperatorConflictError` unless the extras match."""
        if int(dofs_per_node) != self.dofs_per_node:
            why = f"dofs_per_node={int(dofs_per_node)}, registered {self.dofs_per_node}"
        elif (coordinates is None) != (self.coordinates is None) or (
            coordinates is not None
            and not np.array_equal(coordinates, self.coordinates)
        ):
            why = "coordinates differ from the registered ones"
        else:
            return
        raise OperatorConflictError(
            f"operator {self.pattern_fp[:12]}: {why}; one service serves "
            "one set of operator extras per pattern"
        )

    def problem(self, rhs) -> AlgebraicProblem:
        """The operator in the problem shape a session expects."""
        return AlgebraicProblem(
            self.matrix, rhs, self.dofs_per_node, self.coordinates
        )


class _Retry:
    """One request waiting out its backoff before re-queueing."""

    __slots__ = ("not_before", "req", "shard", "values_fp", "arrival")

    def __init__(self, not_before, req, shard, values_fp, arrival):
        self.not_before = not_before
        self.req = req
        self.shard = shard
        self.values_fp = values_fp
        self.arrival = arrival


class SolverService:
    """Shard-pooled, batch-coalescing solve service.

    Parameters
    ----------
    layout:
        The :class:`~repro.runtime.layout.JobLayout` batches are priced
        under.  A request whose partition has another rank count is
        priced under this layout resized to it (GPU kept when the ranks
        still fill whole GPUs, CPU otherwise).  Default: one scaled
        Summit node, 2 ranks per GPU.
    max_batch:
        Width cap of one coalesced block solve.
    batching:
        ``False`` serves one request at a time (the baseline mode the
        benchmark compares against).
    guard:
        :class:`~repro.serve.guard.GuardConfig` enabling bounded
        queues with deadline-aware load shedding, per-shard circuit
        breakers, retry with seeded backoff, and the degradation
        ladder.  None (default) admits everything and disables all
        four.
    elastic:
        :class:`~repro.elastic.policy.ElasticConfig` enabling
        load/health-driven rank scaling: stragglers trigger
        scale-around (merge the slow rank's subdomain away), backlog
        triggers scale-out (split the heaviest subdomain), idle
        capacity scales in.  Every repartition is billed on the modeled
        clock and gated on projected relief.  None (default) keeps the
        static rank pool -- bit-identical to the pre-elastic service.
    fault_plan:
        :class:`~repro.resilience.inject.FaultPlan` whose ``slow_rank``
        specs price seeded slow-rank windows onto the modeled clock
        (setup and per-iteration costs inflate while a window is
        active) and whose ``batch_fault`` specs make whole batches
        fail transiently (contained, then retried under ``guard=``).
        ``slow_rank`` works with or without ``elastic=``: without, the
        service simply eats the slowdown (the static arm of the elastic
        benchmark).
    """

    def __init__(
        self,
        layout: Optional[JobLayout] = None,
        max_batch: int = 8,
        batching: bool = True,
        guard: Optional[GuardConfig] = None,
        elastic: "Optional[object]" = None,
        fault_plan: "Optional[object]" = None,
    ) -> None:
        if layout is None:
            from repro.bench.harness import model_machine

            layout = JobLayout.gpu_run(1, 2, machine=model_machine())
        self.layout = layout
        self.batcher = RequestBatcher(max_batch=max_batch, batching=batching)
        self.pool = SessionPool(maxsize=POOL_SIZE)
        #: the modeled clock, in model seconds since service start
        self.clock = 0.0
        #: total requests served (responses from executed batches)
        self.served = 0
        #: requests refused with ``SolveStatus.SHED``
        self.sheds = 0
        #: retry attempts scheduled by the guard
        self.retries = 0
        #: batches executed below full quality
        self.degraded_batches = 0
        #: batch executions that raised (contained as FAILED/retry)
        self.batch_failures = 0
        self._seq = 0
        self._operators: Dict[str, RegisteredOperator] = {}
        self._inflight: Dict[str, SolveRequest] = {}
        self._estimator = ShardLoadEstimator()
        self._guard = GuardState(guard) if guard is not None else None
        self._retry_queue: List[_Retry] = []
        self._attempts: Dict[str, int] = {}
        self._pending_shed: List[SolveResponse] = []
        # -- elastic runtime state -------------------------------------
        self._elastic = elastic
        self._fault_plan = fault_plan
        #: scale-out / scale-in / scale-around actions executed
        self.scale_outs = 0
        self.scale_ins = 0
        self.scale_arounds = 0
        #: total modeled seconds billed to repartitions
        self.repartition_seconds = 0.0
        self._scalers: Dict[Tuple, object] = {}
        self._shard_layouts: Dict[Tuple, JobLayout] = {}
        # per-shard map: subdomain index -> physical host id (the
        # slow_rank faults name hosts; repartitions remap subdomains)
        self._rank_hosts: Dict[Tuple, List[int]] = {}

    # -- operator registry ---------------------------------------------
    def register(
        self, matrix, coordinates=None, dofs_per_node: int = 1
    ) -> str:
        """Register an operator; returns its pattern fingerprint.

        Later requests from any tenant may carry only the fingerprint
        plus a right-hand side.  Re-registering the same pattern with
        new values replaces the stored operator (same fingerprint); with
        other ``coordinates`` / ``dofs_per_node`` it raises
        :class:`OperatorConflictError`.
        """
        op = RegisteredOperator(matrix, coordinates, dofs_per_node)
        known = self._operators.get(op.pattern_fp)
        if known is not None:
            known.check_extras(coordinates, dofs_per_node)
        self._operators[op.pattern_fp] = op
        return op.pattern_fp

    def register_matrix_market(
        self, path, coordinates=None, dofs_per_node: int = 1
    ) -> str:
        """Register an operator from a MatrixMarket file.

        Reads ``path`` with :func:`repro.io.read_operator` and
        registers the matrix like :meth:`register`; the returned pattern
        fingerprint is what tenants put in
        :attr:`~repro.serve.request.SolveRequest.matrix_fingerprint`.
        Arbitrary ``.mtx`` operators have no FEM null space, so pair
        them with ``SchwarzConfig(coarse_space="spectral")`` unless a
        null space or coordinates are supplied.
        """
        from repro.io import read_operator

        return self.register(
            read_operator(path, dofs_per_node),
            coordinates=coordinates, dofs_per_node=dofs_per_node,
        )

    def _resolve(self, req: SolveRequest) -> RegisteredOperator:
        if req.matrix is not None:
            fp = pattern_fingerprint(req.matrix)
            op = self._operators.get(fp)
            if op is not None:
                op.check_extras(req.coordinates, req.dofs_per_node)
            if op is None or op.values_fp != values_fingerprint(req.matrix):
                op = RegisteredOperator(
                    req.matrix, req.coordinates, req.dofs_per_node
                )
                self._operators[fp] = op
            return op
        op = self._operators.get(req.matrix_fingerprint)
        if op is None:
            raise KeyError(
                f"no operator registered under fingerprint "
                f"{req.matrix_fingerprint!r}; call register() first"
            )
        return op

    # -- request intake -------------------------------------------------
    def submit(
        self, req: SolveRequest, arrival: Optional[float] = None
    ) -> str:
        """Queue one request; returns its request id.

        ``arrival`` stamps the request's arrival on the modeled clock
        (default: now).  With ``guard=`` configured, the admission
        decision happens here: a refused request is *not* queued -- its
        ``SHED`` response is delivered by the next :meth:`drain` (or
        immediately by :meth:`run_trace`).  A request carrying a matrix
        whose pattern is registered with other ``coordinates`` /
        ``dofs_per_node`` raises :class:`OperatorConflictError`; a
        fingerprint request is served with the registered extras.
        """
        op = self._resolve(req)
        if req.rhs.size != op.matrix.n_rows:
            raise ValueError(
                f"rhs has {req.rhs.size} entries for a "
                f"{op.matrix.n_rows}-row operator"
            )
        if req.request_id is None:
            req.request_id = f"r{self._seq:05d}"
        self._seq += 1
        arrival = self.clock if arrival is None else float(arrival)
        shard = shard_key(req, op.pattern_fp)
        if self._guard is not None:
            reason = admission_shed_reason(
                self._estimator,
                shard,
                self.batcher.pending_in_shard(shard),
                req.deadline,
            )
            if reason is not None:
                self._pending_shed.append(
                    self._shed_response(req, arrival, arrival, reason, shard)
                )
                return req.request_id
            with get_tracer().span("serve/admit") as sp:
                sp.annotate(request=req.request_id)
                sp.count("admitted")
        self.batcher.add(req, shard, op.values_fp, arrival)
        self._inflight[req.request_id] = req
        return req.request_id

    # -- execution ------------------------------------------------------
    def drain(self, concurrent: bool = False) -> List[SolveResponse]:
        """Serve everything queued; returns responses in completion order.

        ``concurrent=False`` runs the batches back to back on the full
        layout; ``concurrent=True`` runs them as simultaneous MPS
        tenants (each priced on a split GPU share, the round costing
        the slowest batch).  Requests the guard scheduled for retry are
        re-queued once their backoff elapses and served in later
        rounds; the drain only returns when every submitted request has
        a terminal response.
        """
        responses: List[SolveResponse] = list(self._pending_shed)
        self._pending_shed.clear()
        while True:
            self._release_due_retries()
            batches = self.batcher.take_batches()
            if not batches:
                nxt = self._next_retry_time()
                if nxt is None:
                    break
                # idle wait: fast-forward to the earliest backoff expiry
                self.clock = max(self.clock, nxt)
                continue
            if concurrent and len(batches) > 1:
                tenants = len(batches)
                layout = self.layout.with_tenants(tenants)
                start = self.clock
                round_secs = 0.0
                for batch in batches:
                    rs, secs = self._execute_batch(batch, layout, start)
                    responses.extend(rs)
                    round_secs = max(round_secs, secs)
                self.clock = start + round_secs
            else:
                for batch in batches:
                    rs, secs = self._execute_batch(
                        batch, self.layout, self.clock
                    )
                    responses.extend(rs)
                    self.clock += secs
        return responses

    def solve(self, req: SolveRequest) -> SolveResponse:
        """Submit one request and serve it immediately (width-1 batch)."""
        self.submit(req)
        return self.drain()[0]

    def run_trace(
        self, arrivals: Sequence[Tuple[float, SolveRequest]]
    ) -> List[SolveResponse]:
        """Replay a streaming arrival timeline; returns all responses.

        ``arrivals`` is a sequence of ``(model_time, request)`` pairs
        (:meth:`ArrivalTrace.bind` produces one).  The loop alternates
        admission and execution on the modeled clock: all arrivals due
        at or before "now" are admitted (through the admission
        guard when configured), then ONE batch -- the earliest in
        execution order -- is served, so arrivals landing during its
        service join the next round's coalescing.  When the service
        goes idle the clock fast-forwards to the next arrival or retry.
        """
        events = sorted(
            enumerate(arrivals), key=lambda e: (e[1][0], e[0])
        )
        events = [ev for _, ev in events]
        responses: List[SolveResponse] = []
        i, n = 0, len(events)
        while True:
            while i < n and events[i][0] <= self.clock:
                t, req = events[i]
                i += 1
                self.submit(req, arrival=t)
                responses.extend(self._pending_shed)
                self._pending_shed.clear()
            self._release_due_retries()
            batch = self.batcher.take_next_batch()
            if batch is not None:
                rs, secs = self._execute_batch(batch, self.layout, self.clock)
                responses.extend(rs)
                self.clock += secs
                continue
            times = []
            if i < n:
                times.append(events[i][0])
            nxt = self._next_retry_time()
            if nxt is not None:
                times.append(nxt)
            if not times:
                break
            self.clock = max(self.clock, min(times))
        return responses

    # -- internals ------------------------------------------------------
    def _solve_price(
        self,
        result: BlockSolveResult,
        precond,
        layout: JobLayout,
        rank_factors=None,
    ) -> float:
        """Deflation-aware model seconds of the block iteration phase.

        Columns retire as they converge, so iteration ``i`` runs at the
        width of the still-active columns: sorting the per-column depths
        ascending, the block spends ``d_1`` iterations at full width,
        ``d_2 - d_1`` at width ``k-1``, and so on.  Batched reductions
        are priced once from the result's own batched counters.  Under
        a degraded operator the per-iteration kernels are the degraded
        ones (halved bytes, no coarse solve), so the rung's saving is
        priced, not asserted.  ``rank_factors`` (active straggler
        windows) inflates per-rank costs before the lockstep max.
        """
        depths = sorted(result.iterations)
        k = len(depths)
        secs = 0.0
        prev = 0
        for j, d in enumerate(depths):
            span = d - prev
            if span > 0:
                width = k - j
                secs += span * block_iteration_seconds(
                    precond, layout, width, rank_factors=rank_factors
                )
            prev = d
        secs += reduce_seconds(
            layout, result.reduces, result.reduce_doubles
        )
        return secs

    # -- elastic runtime ------------------------------------------------
    def _layout_for_ranks(self, n: int, base: JobLayout) -> JobLayout:
        """A layout like ``base`` resized to ``n`` ranks.

        GPU layouts stay on GPU when ``n`` still fills whole GPUs
        (``ranks_per_gpu`` adjusts the MPS share); otherwise the resized
        pool runs CPU-side on the same machine.
        """
        if n == base.n_ranks:
            return base
        gpus = base.machine.gpus_per_node
        on_gpu = base.use_gpu and n % gpus == 0
        return JobLayout(
            nodes=1,
            ranks_per_node=n,
            use_gpu=on_gpu,
            ranks_per_gpu=n // gpus if on_gpu else 1,
            threads_per_rank=base.threads_per_rank,
            machine=base.machine,
            tenants=base.tenants,
        )

    def _rank_factors(self, shard: Tuple, t: float, n_ranks: int):
        """Per-subdomain straggler factors at model time ``t`` (or None).

        The plan speaks in physical host ids; ``_rank_hosts`` tracks
        which host each subdomain currently occupies across merges and
        splits.  All-healthy returns None so the healthy pricing path is
        byte-for-byte the pre-straggler one.
        """
        if self._fault_plan is None:
            return None
        hosts = self._rank_hosts.get(shard)
        if hosts is None or len(hosts) != n_ranks:
            hosts = list(range(n_ranks))
            self._rank_hosts[shard] = hosts
        factors = np.array(
            [self._fault_plan.factor_at(h, t) for h in hosts],
            dtype=np.float64,
        )
        if np.all(factors == 1.0):
            return None
        return factors

    def _maybe_scale(
        self, batch: RequestBatch, layout: JobLayout, start_clock: float
    ) -> float:
        """Evaluate (and possibly execute) one scaling action for a shard.

        Runs *before* the batch it was triggered by, so the triggering
        batch is already served on the repaired partition (reactive
        repair would let one more straggler-priced batch blow its
        deadline first).  Returns the modeled repartition seconds billed
        to the clock (0.0 when the policy holds still).
        """
        if self._elastic is None:
            return 0.0
        from repro.elastic.policy import ScalingPolicy, repair_seconds
        from repro.runtime.timings import per_rank_iteration_seconds

        shard = batch.shard
        pooled = self.pool.get(shard)
        if pooled is None or pooled.precond is None:
            return 0.0
        precond = pooled.precond
        n = precond.dec.n_subdomains
        factors = self._rank_factors(shard, start_clock, n)
        costs = per_rank_iteration_seconds(
            precond, layout, 1, rank_factors=factors
        )
        policy = self._scalers.get(shard)
        if policy is None:
            policy = ScalingPolicy(self._elastic)
            self._scalers[shard] = policy
        queued = -(-self.batcher.pending_in_shard(shard)
                   // max(1, self.batcher.max_batch))
        batch_secs = self._estimator.batch_seconds(shard)
        decision = policy.decide(
            start_clock, costs, factors, queued, batch_secs, 0.0
        )
        if decision is None:
            return 0.0
        # build the candidate repartition and re-bill with its true cost
        if decision.kind == "scale_out":
            repaired = precond.split_subdomain(decision.rank)
        else:
            repaired = precond.remove_subdomain(decision.rank)
        cost = repair_seconds(repaired, precond, layout)
        final = policy.decide(
            start_clock, costs, factors, queued, batch_secs, cost
        )
        if (
            final is None
            or final.kind != decision.kind
            or final.rank != decision.rank
        ):
            return 0.0
        from repro.reuse import partition_fingerprint

        with get_tracer().span(f"elastic/{final.kind}") as sp:
            sp.annotate(
                rank=final.rank,
                reason=final.reason,
                projected_relief_seconds=final.projected_relief_seconds,
            )
            sp.count("repartition_seconds", cost)
            hosts = self._rank_hosts.get(shard) or list(range(n))
            if final.kind == "scale_out":
                fresh = max(
                    hosts
                    + (self._fault_plan.slow_ranks if self._fault_plan else [])
                ) + 1
                hosts = hosts + [fresh]
                self.scale_outs += 1
            else:
                hosts = hosts[: final.rank] + hosts[final.rank + 1:]
                if final.kind == "scale_around":
                    self.scale_arounds += 1
                else:
                    self.scale_ins += 1
            self._rank_hosts[shard] = hosts
            new_key = (
                "decomposition",
                shard[0],
                partition_fingerprint(repaired.dec.node_parts),
            )
            pooled.adopt_repartition(repaired, new_key)
            self._shard_layouts[shard] = self._layout_for_ranks(
                repaired.dec.n_subdomains, self.layout
            )
        policy.record_action(start_clock)
        self.repartition_seconds += cost
        return cost

    # -- guard / admission helpers --------------------------------------
    @staticmethod
    def _shard_str(shard: Tuple, req: SolveRequest) -> str:
        # the pattern prefix and describe() are for reading; the hash of
        # the whole key tells apart shards they print alike (two
        # dampings, two Krylov configs, two null spaces)
        key_hash = hashlib.blake2b(repr(shard).encode(), digest_size=3).hexdigest()
        return f"{shard[0][:8]}#{key_hash}:{req.config.describe()}"

    def _unserved(
        self,
        req: SolveRequest,
        status: SolveStatus,
        arrival: float,
        now: float,
        shard: Tuple,
        service_seconds: float = 0.0,
        batch_width: int = 0,
        **why,
    ) -> SolveResponse:
        """Terminal ``SHED`` / ``FAILED`` response; ``why`` names the
        cause (``shed_reason=`` / ``error=``).  A shed request never
        meets its deadline; a failed one is judged on the modeled time
        its attempts consumed."""
        self._inflight.pop(req.request_id, None)
        latency = max(0.0, now - arrival)
        return SolveResponse(
            request_id=req.request_id,
            tenant=req.tenant,
            status=status,
            x=np.zeros(0),
            iterations=0,
            converged=False,
            residual_norms=[],
            final_relres=float("inf"),
            queue_wait_seconds=max(0.0, now - service_seconds - arrival),
            batch_width=batch_width,
            service_seconds=service_seconds,
            latency_seconds=latency,
            deadline_met=(
                None if req.deadline is None
                else status is SolveStatus.FAILED and latency <= req.deadline
            ),
            shard=self._shard_str(shard, req),
            retries=self._attempts.get(req.request_id, 0),
            **why,
        )

    def _shed_response(
        self,
        req: SolveRequest,
        arrival: float,
        now: float,
        reason: str,
        shard: Tuple,
    ) -> SolveResponse:
        """Terminal SHED response (fast honest rejection, zero service)."""
        self.sheds += 1
        with get_tracer().span("serve/shed") as sp:
            sp.annotate(request=req.request_id, reason=reason)
            sp.count("shed")
        return self._unserved(
            req, SolveStatus.SHED, arrival, now, shard, shed_reason=reason
        )

    def _release_due_retries(self) -> None:
        """Re-queue retries whose backoff has elapsed at the clock."""
        due = [r for r in self._retry_queue if r.not_before <= self.clock]
        if not due:
            return
        self._retry_queue = [
            r for r in self._retry_queue if r.not_before > self.clock
        ]
        for r in sorted(due, key=lambda r: (r.not_before, r.req.request_id)):
            self.batcher.add(r.req, r.shard, r.values_fp, r.arrival)
            self._inflight[r.req.request_id] = r.req

    def _next_retry_time(self) -> Optional[float]:
        if not self._retry_queue:
            return None
        return min(r.not_before for r in self._retry_queue)

    def _shed_hopeless(
        self, batch: RequestBatch, start_clock: float
    ) -> Tuple[Optional[RequestBatch], List[SolveResponse]]:
        """Shed queued requests whose deadline has already passed.

        A request with ``arrival + deadline <= start_clock`` cannot
        possibly be answered in time -- serving it would only delay
        everything behind it.  Returns the (possibly narrowed) batch
        and the shed responses; None when the whole batch was hopeless.
        """
        keep, shed = [], []
        for i, (req, arrival) in enumerate(
            zip(batch.requests, batch.arrival_clocks)
        ):
            if (
                req.deadline is not None
                and arrival + req.deadline <= start_clock
            ):
                shed.append(self._shed_response(
                    req, arrival, start_clock, "deadline_passed", batch.shard
                ))
            else:
                keep.append(i)
        if not shed:
            return batch, []
        return (batch.only(keep) if keep else None), shed

    def _degradation_for(
        self, batch: RequestBatch, start_clock: float
    ) -> Optional[DegradationDecision]:
        """The ladder's decision for one batch about to execute."""
        guard = self._guard
        if guard is None:
            return None
        # flat-cost model: a block solve shares one launch schedule, so
        # its cost is nearly width-independent
        est = self._estimator.batch_seconds(batch.shard)
        headrooms = [
            arrival + req.deadline - start_clock
            for req, arrival in zip(batch.requests, batch.arrival_clocks)
            if req.deadline is not None
        ]
        headroom = min(headrooms) if headrooms else None
        pressure = guard.ladder.pressure(est, headroom)
        decision = guard.ladder.decide(
            pressure,
            batch.requests[0].krylov.rtol,
            [r.tolerance_budget for r in batch.requests],
        )
        return decision if decision.degraded else None

    def _schedule_retry_or_fail(
        self,
        batch: RequestBatch,
        now: float,
        error: str,
        service_seconds: float,
    ) -> List[SolveResponse]:
        """Route each request of a failed batch: backoff retry or FAILED."""
        out: List[SolveResponse] = []
        tr = get_tracer()
        for req, arrival in zip(batch.requests, batch.arrival_clocks):
            attempt = self._attempts.get(req.request_id, 0) + 1
            self._attempts[req.request_id] = attempt
            not_before = None
            if self._guard is not None:
                abs_deadline = (
                    None if req.deadline is None else arrival + req.deadline
                )
                not_before = self._guard.retry.should_retry(
                    req.request_id, attempt, now, abs_deadline
                )
            if not_before is not None:
                self.retries += 1
                with tr.span("serve/retry") as sp:
                    sp.annotate(
                        request=req.request_id, attempt=attempt,
                        not_before=not_before,
                    )
                    sp.count("retries")
                self._retry_queue.append(_Retry(
                    not_before, req, batch.shard, batch.values_fp, arrival
                ))
            else:
                # containment / retry budget exhausted: terminal FAILED
                out.append(self._unserved(
                    req, SolveStatus.FAILED, arrival, now, batch.shard,
                    service_seconds, batch.width, error=error,
                ))
        return out

    def _execute_batch(
        self, batch: RequestBatch, layout: JobLayout, start_clock: float
    ) -> Tuple[List[SolveResponse], float]:
        """Guarded execution of one batch: shed, break, degrade, contain.

        Returns the terminal responses produced now (retried requests
        produce theirs in a later round) and the modeled seconds the
        batch consumed.
        """
        responses: List[SolveResponse] = []
        # elastic scaling runs first: the triggering batch is served on
        # the repaired partition, with the repartition billed up front
        extra = 0.0
        if self._elastic is not None:
            extra = self._maybe_scale(
                batch, self._shard_layouts.get(batch.shard, layout),
                start_clock,
            )
            start_clock += extra
        layout = self._shard_layouts.get(batch.shard, layout)
        breaker = None
        if self._guard is not None:
            # shed-in-queue: drop requests whose deadline already passed
            narrowed, shed = self._shed_hopeless(batch, start_clock)
            responses.extend(shed)
            if narrowed is None:
                return responses, extra
            batch = narrowed
            # circuit breaker: fail fast on a shard that keeps breaking
            breaker = self._guard.breaker(batch.shard)
            if not breaker.allow(start_clock):
                for req, arrival in zip(batch.requests, batch.arrival_clocks):
                    responses.append(self._shed_response(
                        req, arrival, start_clock, "circuit_open", batch.shard
                    ))
                return responses, extra
        decision = self._degradation_for(batch, start_clock)
        head = batch.requests[0].request_id
        attempt = self._attempts.get(head, 0)
        try:
            if self._fault_plan is not None and self._fault_plan.batch_faulted(
                head, attempt
            ):
                raise RuntimeError(
                    f"injected transient fault (batch head {head}, "
                    f"attempt {attempt})"
                )
            rs, secs = self._serve_batch(batch, layout, start_clock, decision)
        except Exception as exc:  # containment: the drain must continue
            self.batch_failures += 1
            # the failed attempt consumed real modeled time: bill the
            # shard's smoothed flat-cost batch estimate
            secs = self._estimator.batch_seconds(batch.shard)
            now = start_clock + secs
            if breaker is not None:
                breaker.record_failure(now)
            error = f"{type(exc).__name__}: {exc}"
            responses.extend(
                self._schedule_retry_or_fail(batch, now, error, secs)
            )
            return responses, extra + secs
        self._estimator.observe(batch.shard, secs, batch.width)
        now = start_clock + secs
        if breaker is not None:
            if any(r.converged for r in rs):
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
        # non-converged breakdown columns are retry candidates
        if self._guard is not None:
            broken = [
                i for i, resp in enumerate(rs)
                if resp.status is SolveStatus.BREAKDOWN
            ]
            if broken:
                rs = [r for i, r in enumerate(rs) if i not in broken]
                rs.extend(self._schedule_retry_or_fail(
                    batch.only(broken), now, "breakdown", secs
                ))
        for resp in rs:
            if resp.status is not SolveStatus.FAILED:
                self._inflight.pop(resp.request_id, None)
                self.served += 1
        responses.extend(rs)
        return responses, extra + secs

    def _serve_batch(
        self,
        batch: RequestBatch,
        layout: JobLayout,
        start_clock: float,
        decision: Optional[DegradationDecision] = None,
    ) -> Tuple[List[SolveResponse], float]:
        op = self._operators[batch.shard[0]]
        tr = get_tracer()
        head = batch.requests[0]
        with tr.span("serve/batch") as sp:
            sp.annotate(shard=self._shard_str(batch.shard, head), tenants=sorted(
                {r.tenant for r in batch.requests}
            ))
            sp.count("batch_width", float(batch.width))
            problem = op.problem(head.rhs)
            pooled = self.pool.acquire(batch.shard, lambda: SolverSession(
                problem,
                partition=head.partition,
                config=head.config,
                krylov=head.krylov,
                nullspace=head.nullspace,
            ))
            first_use = pooled.setups == 0
            precond, reused = pooled.preconditioner_for(
                batch.values_fp, problem
            )
            # a layout sized for another rank count (the 4-rank default
            # against an 8-subdomain request) is resized the way an
            # elastic repartition resizes it, for every batch of the
            # shard alike: pricing used to raise on the shard's first
            # request only, later ones skipping the setup pricing
            layout = self._layout_for_ranks(precond.dec.n_subdomains, layout)
            factors = self._rank_factors(
                batch.shard, start_clock, precond.dec.n_subdomains
            )
            if reused:
                setup_secs = 0.0
            else:
                from repro.runtime.timings import time_solver

                t = time_solver(precond, layout, 0, 0, 0,
                                rank_factors=factors)
                setup_secs = (
                    t.first_setup_seconds if first_use else t.setup_seconds
                )
            operator = precond
            rtol_override = None
            degradation_dict = None
            if decision is not None and decision.degraded:
                from repro.serve.guard import DegradationLadder

                self.degraded_batches += 1
                operator = DegradationLadder.wrap_operator(precond, decision)
                rtol_override = decision.effective_rtol
                degradation_dict = decision.to_dict()
                with tr.span("serve/degrade") as dsp:
                    dsp.annotate(
                        rungs=",".join(decision.rungs),
                        pressure=decision.pressure,
                    )
                    dsp.count("degraded_batches")
            with tr.span("serve/solve") as ssp:
                result = run_krylov(
                    batch.requests[0].krylov,
                    op.matrix,
                    np.stack([r.rhs for r in batch.requests], axis=1),
                    operator,
                    rtol=rtol_override,
                )
                ssp.count("block_width", float(batch.width))
            solve_secs = self._solve_price(
                result, operator, layout, rank_factors=factors
            )
            batch_secs = setup_secs + solve_secs
            sp.annotate(
                setup_seconds=setup_secs,
                solve_seconds=solve_secs,
                setup_reused=reused,
            )
            b_norms = [
                max(float(np.linalg.norm(r.rhs)), 1e-300)
                for r in batch.requests
            ]
            responses = []
            for i, (req, arrival) in enumerate(
                zip(batch.requests, batch.arrival_clocks)
            ):
                x = result.x[:, i].copy()
                relres = float(
                    np.linalg.norm(op.matrix.matvec(x) - req.rhs)
                    / b_norms[i]
                )
                wait = start_clock - arrival
                latency = wait + batch_secs
                sp.count("queue_wait_seconds", wait)
                responses.append(
                    SolveResponse(
                        request_id=req.request_id,
                        tenant=req.tenant,
                        status=result.statuses[i],
                        x=x,
                        iterations=result.iterations[i],
                        converged=result.converged[i],
                        residual_norms=list(result.residual_norms[i]),
                        final_relres=relres,
                        queue_wait_seconds=wait,
                        batch_width=batch.width,
                        service_seconds=batch_secs,
                        latency_seconds=latency,
                        deadline_met=(
                            None if req.deadline is None
                            else latency <= req.deadline
                        ),
                        shard=self._shard_str(batch.shard, req),
                        retries=self._attempts.get(req.request_id, 0),
                        degradation=degradation_dict,
                    )
                )
                pooled.served += 1
        return responses, batch_secs

    def close(self) -> None:
        """Release pooled sessions and their artifact pins."""
        self.pool.close()
