"""The overload chaos benchmark behind ``BENCH_slo.json``.

``python -m repro.serve --overload`` replays seeded Poisson arrival
traces (:class:`~repro.serve.admission.ArrivalTrace`) at 1--16x the
service's calibrated capacity, with seeded *transient* solver faults
injected (:class:`FaultInjector` -- a faulted batch raises; its retry
re-hashes with the bumped attempt counter and normally succeeds), and
serves every trace twice:

* **unguarded** -- the plain service.  Faults become terminal
  ``FAILED`` responses (the containment fix keeps the drain alive);
  nothing is shed, so under overload every request is served -- late.
* **guarded** -- the same service with an
  :class:`~repro.serve.admission.AdmissionConfig` (bounded queues +
  deadline-aware shedding) and a
  :class:`~repro.serve.guard.GuardConfig` (per-shard circuit breakers,
  deadline-capped seeded-backoff retries, the degradation ladder).

Per arm and multiplier the report records p50/p99 modeled latency over
served requests, shed rate, SLO-violation rate, and goodput.  The SLO
accounting is deliberate: a **violation** is a request the service
answered *wrongly* -- served past its deadline, or terminally failed.
A **shed** is an honest, immediate refusal; it is not a violation but
it scores zero **goodput** (converged-and-on-deadline responses per
model second), so a service cannot win by shedding everything.

Three invariants become ``violations`` entries when they fail (the CI
``overload-chaos`` job gates on them):

1. at every multiplier >= 4 the guarded arm's SLO-violation rate is
   strictly below the unguarded arm's;
2. at the 8x point the guarded arm also has strictly higher goodput;
3. at 1x with faults disabled, the guarded arm is bit-identical to the
   unguarded arm (same solutions, iteration counts and latencies) with
   zero sheds, retries and degradations -- the guard is provably free
   until it fires.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.guard import seeded_jitter

__all__ = ["FaultInjector", "InjectedSolverFault", "run_overload_bench"]


class InjectedSolverFault(RuntimeError):
    """A chaos-injected batch failure (transient by construction)."""


class FaultInjector:
    """Seeded transient batch faults for the chaos arms.

    A batch faults when ``seeded_jitter(seed, "fault:" + head_id,
    attempt) < rate``, where ``head_id`` is the batch's first request
    and ``attempt`` that request's failure count so far.  The decision
    is a pure hash of ``(seed, request, attempt)``: replays are
    bit-identical, and a retried batch re-rolls with the bumped attempt
    counter, so faults are *transient* -- exactly the failure mode
    retry-with-backoff exists for.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"fault rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        #: batches faulted so far (reporting)
        self.injected = 0

    def __call__(self, batch, attempts: Dict[str, int]) -> None:
        if self.rate <= 0.0:
            return
        head = batch.requests[0].request_id
        attempt = attempts.get(head, 0)
        if seeded_jitter(self.seed, f"fault:{head}", attempt) < self.rate:
            self.injected += 1
            raise InjectedSolverFault(
                f"injected transient fault (batch head {head}, "
                f"attempt {attempt})"
            )


def _percentile(latencies: Sequence[float], q: float) -> float:
    if not latencies:
        return float("inf")
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


def _arm_metrics(service, responses, n_requests: int) -> dict:
    """SLO scorecard of one served trace (see module docstring)."""
    from repro.krylov import SolveStatus

    served = [r for r in responses if r.status is not SolveStatus.SHED]
    sheds = [r for r in responses if r.status is SolveStatus.SHED]
    failed = [r for r in served if r.status is SolveStatus.FAILED]
    late = [
        r for r in served
        if r.status is not SolveStatus.FAILED and r.deadline_met is False
    ]
    good = [
        r for r in served
        if r.status is SolveStatus.CONVERGED and r.deadline_met
    ]
    latencies = [r.latency_seconds for r in served]
    clock = max(float(service.clock), 1e-300)
    return {
        "responses": len(responses),
        "served": len(served),
        "sheds": len(sheds),
        "failed": len(failed),
        "late": len(late),
        "good": len(good),
        "retries": int(service.retries),
        "degraded_batches": int(service.degraded_batches),
        "batch_failures": int(service.batch_failures),
        "shed_rate": len(sheds) / n_requests,
        "slo_violation_rate": (len(failed) + len(late)) / n_requests,
        "p50_latency_seconds": _percentile(latencies, 50),
        "p99_latency_seconds": _percentile(latencies, 99),
        "goodput_rps": len(good) / clock,
        "makespan_seconds": float(service.clock),
        "shed_reasons": sorted(
            {r.shed_reason for r in sheds if r.shed_reason}
        ),
    }


def _calibrated_seconds(problem, layout, width: int, seed: int) -> float:
    """Warm full-width batched service seconds per request.

    One cold request pays the one-time setup; a full ``width`` batch on
    the warm shard then measures the modeled steady-state rate.
    """
    from repro.reuse import ArtifactCache, use_artifact_cache
    from repro.serve.request import SolveRequest
    from repro.serve.service import SolverService

    with use_artifact_cache(ArtifactCache()):
        calib = SolverService(layout=layout, max_batch=width)
        fp = calib.register(problem.a)
        rng = np.random.default_rng(100003 * seed)

        def _calib_req():
            return SolveRequest(
                rhs=problem.b + 0.1 * rng.standard_normal(problem.b.size),
                matrix_fingerprint=fp, partition=(2, 2, 1),
            )

        calib.solve(_calib_req())  # pays the one-time setup
        warm_clock = calib.clock
        for _ in range(width):
            calib.submit(_calib_req())
        calib.drain()
        calib.close()
    return (calib.clock - warm_clock) / width


def _run_arm(
    problem,
    layout,
    trace,
    *,
    deadline: float,
    seed: int,
    tolerance_budget: Optional[float] = None,
    fault_rate: float = 0.0,
    **service_options,
) -> tuple:
    """Serve one bound trace on a fresh service; returns (service, responses).

    ``service_options`` go to :class:`SolverService` (``admission=``,
    ``guard=``, ``elastic=``, ``stragglers=``, ``max_batch=``).
    """
    from repro.reuse import ArtifactCache, use_artifact_cache
    from repro.serve.request import SolveRequest
    from repro.serve.service import SolverService

    injector = (
        FaultInjector(fault_rate, seed=seed) if fault_rate > 0.0 else None
    )
    with use_artifact_cache(ArtifactCache()):
        service = SolverService(
            layout=layout, fault_injector=injector, **service_options
        )
        fp = service.register(problem.a)

        def factory(arrival):
            rng = np.random.default_rng(100003 * seed + arrival.index)
            return SolveRequest(
                rhs=problem.b + 0.1 * rng.standard_normal(problem.b.size),
                matrix_fingerprint=fp,
                tenant=arrival.tenant,
                partition=(2, 2, 1),
                deadline=deadline,
                tolerance_budget=tolerance_budget,
            )

        responses = service.run_trace(trace.bind(factory))
        service.close()
    return service, responses


def _identical(ra, rb) -> bool:
    """Bit-identity of two response streams (order, solution, clock)."""
    if len(ra) != len(rb):
        return False
    for a, b in zip(ra, rb):
        if (
            a.request_id != b.request_id
            or a.status is not b.status
            or a.iterations != b.iterations
            or a.latency_seconds != b.latency_seconds
            or a.service_seconds != b.service_seconds
            or not np.array_equal(a.x, b.x)
        ):
            return False
    return True


def run_overload_bench(
    multipliers: Sequence[float] = (1, 2, 4, 8, 16),
    n_requests: int = 96,
    seed: int = 0,
    elements: int = 5,
    fault_rate: float = 0.25,
) -> dict:
    """Guarded-vs-unguarded SLO comparison over an overload sweep.

    Capacity is calibrated from a warm full-width block solve, derated
    to 60% utilization: a *streaming* service serves one batch per
    round and ramps its width up from 1, so the full-width rate is a
    ceiling it only approaches -- at 60% of it the queue stays bounded
    and latencies settle near one batch time, while ``m >= 2`` outruns
    even perfect coalescing and the backlog grows without bound.  Every
    request carries the same deadline (45 calibrated batched
    per-request service times: comfortable at 1x, increasingly hopeless
    as the backlog grows) and a ``tolerance_budget`` two decades above
    the default rtol, giving the degradation ladder a declared budget
    to spend under pressure.
    """
    from repro.bench.harness import model_machine
    from repro.fem import laplace_3d
    from repro.runtime.layout import JobLayout
    from repro.serve.admission import AdmissionConfig, ArrivalTrace
    from repro.serve.guard import GuardConfig

    problem = laplace_3d(elements, elements, elements)
    layout = JobLayout.gpu_run(1, 2, machine=model_machine())

    # ---- capacity calibration: warm full-width batched throughput ----
    per_request_seconds = _calibrated_seconds(problem, layout, 8, seed)
    capacity_rps = 0.6 / per_request_seconds
    deadline = 45.0 * per_request_seconds

    admission = AdmissionConfig(
        max_queue_depth=64,
        bucket_rate=None,
        backlog_factor=1.5,
        shed_in_queue=True,
    )
    guard = GuardConfig(
        breaker_cooldown=2.0 * per_request_seconds,
        backoff_base=0.05 * per_request_seconds,
        seed=seed,
    )

    violations: List[str] = []
    by_multiplier: Dict[str, dict] = {}
    for m in multipliers:
        trace = ArrivalTrace.poisson(
            rate=m * capacity_rps, n=n_requests, seed=seed
        )
        arms = {}
        for arm, adm, grd in (
            ("unguarded", None, None),
            ("guarded", admission, guard),
        ):
            svc, resp = _run_arm(
                problem, layout, trace,
                deadline=deadline, tolerance_budget=1e-5, seed=seed,
                admission=adm, guard=grd, fault_rate=fault_rate,
            )
            arms[arm] = _arm_metrics(svc, resp, n_requests)
        by_multiplier[str(m)] = arms

        g, u = arms["guarded"], arms["unguarded"]
        if m >= 4 and not g["slo_violation_rate"] < u["slo_violation_rate"]:
            violations.append(
                f"x{m}: guarded SLO-violation rate "
                f"{g['slo_violation_rate']:.3f} not strictly below "
                f"unguarded {u['slo_violation_rate']:.3f}"
            )
        if m == 8 and not g["goodput_rps"] > u["goodput_rps"]:
            violations.append(
                f"x{m}: guarded goodput {g['goodput_rps']:.3f} req/s not "
                f"strictly above unguarded {u['goodput_rps']:.3f}"
            )

    # ---- invariant 3: the guard is free until it fires ----
    ident_trace = ArrivalTrace.poisson(
        rate=capacity_rps, n=n_requests, seed=seed
    )
    svc_u, resp_u = _run_arm(
        problem, layout, ident_trace,
        deadline=deadline, tolerance_budget=1e-5, seed=seed,
    )
    svc_g, resp_g = _run_arm(
        problem, layout, ident_trace,
        deadline=deadline, tolerance_budget=1e-5, seed=seed,
        admission=admission, guard=guard,
    )
    identical = _identical(resp_u, resp_g)
    quiet = (
        svc_g.sheds == 0
        and svc_g.retries == 0
        and svc_g.degraded_batches == 0
    )
    if not identical:
        violations.append(
            "1x no-fault: guarded responses differ from unguarded"
        )
    if not quiet:
        violations.append(
            f"1x no-fault: guard fired (sheds={svc_g.sheds}, "
            f"retries={svc_g.retries}, degraded={svc_g.degraded_batches})"
        )

    return {
        "bench": "slo",
        "seed": int(seed),
        "n_requests": int(n_requests),
        "n_dofs": int(problem.a.n_rows),
        "partition": [2, 2, 1],
        "layout": "gpu_run(nodes=1, ranks_per_gpu=2)",
        "fault_rate": float(fault_rate),
        "per_request_seconds": per_request_seconds,
        "capacity_rps": capacity_rps,
        "deadline_seconds": deadline,
        "multipliers": by_multiplier,
        "no_fault_identity": {
            "identical": identical,
            "sheds": int(svc_g.sheds),
            "retries": int(svc_g.retries),
            "degraded_batches": int(svc_g.degraded_batches),
        },
        "violations": violations,
    }
