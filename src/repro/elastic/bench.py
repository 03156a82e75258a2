"""The elastic-chaos benchmark behind ``BENCH_elastic.json``.

``python -m repro.elastic`` replays a seeded straggler + load-surge
trace through :class:`~repro.serve.service.SolverService` twice:

* **static** -- the service eats the straggler: every batch inside the
  slow window is priced at the straggler's inflated critical path, the
  queue backs up behind it, and deadlines blow.
* **elastic** -- the same service with an
  :class:`~repro.elastic.policy.ElasticConfig`: the scaling policy
  sees the straggler on the modeled critical path, bills a
  scale-around (merge the slow rank's subdomain into a neighbor,
  reusing every untouched factorization), and serves the window on the
  healthy rank pool.

Three invariant families become ``violations`` entries when they fail
(the CI ``elastic-chaos`` job gates on them):

1. **no-trigger identity** -- with no straggler and no overload, the
   elastic-enabled service is bit-identical to the plain one (same
   solutions, iterations, latencies, op counters), executes zero
   scaling actions, and its makespan overhead is under 5%;
2. **straggler + surge** -- the elastic arm's makespan is strictly
   below the static arm's, with zero SLO violations and at least one
   scaling action;
3. **bounded staleness** -- the asynchronous bounded-staleness solve
   converges and its modeled time (stale iterations priced without the
   straggler on the critical path) is strictly below the
   bulk-synchronous solve priced through the same straggler.
"""

from __future__ import annotations

import functools
from typing import Dict, List

import numpy as np

__all__ = ["run_elastic_bench"]


def _counters(service) -> Dict[str, float]:
    """The op-count fingerprint of one service run (identity checks)."""
    return {
        "served": int(service.served),
        "sheds": int(service.sheds),
        "retries": int(service.retries),
        "degraded_batches": int(service.degraded_batches),
        "batch_failures": int(service.batch_failures),
        "scale_outs": int(service.scale_outs),
        "scale_ins": int(service.scale_ins),
        "scale_arounds": int(service.scale_arounds),
        "repartition_seconds": float(service.repartition_seconds),
    }


def run_elastic_bench(
    seed: int = 7,
    n_requests: int = 48,
    elements: int = 5,
    straggler_factor: float = 8.0,
) -> dict:
    """Straggler + load-surge comparison of the static and elastic arms.

    Capacity is calibrated exactly like the overload bench (warm
    full-width batched throughput, derated); the serving layout is a
    CPU rank pool so merges and splits stay within one execution
    space.  The straggler window opens after the warmup batches and
    spans the middle of the trace; arrivals follow a bursty timeline at
    ~70% of calibrated capacity, so the static arm's only problem is
    the straggler -- which is the point.
    """
    from repro.bench.harness import model_machine
    from repro.dd.decomposition import Decomposition
    from repro.dd.two_level import GDSWPreconditioner
    from repro.elastic.async_schwarz import async_solve_seconds, solve_async
    from repro.elastic.policy import ElasticConfig
    from repro.fem import laplace_3d
    from repro.ft.plan import StragglerPlan
    from repro.krylov.gmres import gmres
    from repro.reuse import ArtifactCache, use_artifact_cache
    from repro.runtime.layout import JobLayout
    from repro.runtime.timings import block_iteration_seconds
    from repro.serve.admission import ArrivalTrace
    from repro.serve.overload import (
        _arm_metrics,
        _calibrated_seconds,
        _identical,
        _run_arm,
    )

    problem = laplace_3d(elements, elements, elements)
    layout = JobLayout.cpu_run(1, ranks_per_node=4, machine=model_machine())
    run_arm = functools.partial(_run_arm, max_batch=4)
    violations: List[str] = []

    # ---- capacity calibration (overload-bench pattern) ----------------
    calib_width = 4
    per_request_seconds = _calibrated_seconds(
        problem, layout, calib_width, seed
    )
    capacity_rps = 0.7 / per_request_seconds
    batch_seconds = calib_width * per_request_seconds
    # comfortable against healthy batches, hopeless against a x8
    # straggler holding the whole window's critical path
    deadline = 5.0 * straggler_factor * per_request_seconds

    elastic = ElasticConfig(
        min_ranks=2,
        max_ranks=8,
        straggler_factor=1.5,
        backlog_batches=4,
        cooldown_seconds=2.0 * batch_seconds,
    )

    # ---- section 1: no-trigger identity -------------------------------
    quiet_trace = ArrivalTrace.poisson(
        rate=0.5 * capacity_rps, n=n_requests, seed=seed
    )
    svc_plain, resp_plain = run_arm(
        problem, layout, quiet_trace, deadline=deadline, seed=seed
    )
    svc_idle, resp_idle = run_arm(
        problem, layout, quiet_trace, deadline=deadline, seed=seed,
        elastic=elastic,
    )
    identical = _identical(resp_plain, resp_idle)
    scale_events = (
        svc_idle.scale_outs + svc_idle.scale_ins + svc_idle.scale_arounds
    )
    overhead = (
        svc_idle.clock / max(svc_plain.clock, 1e-300) - 1.0
    )
    if not identical:
        violations.append(
            "no-trigger: elastic-enabled responses differ from plain"
        )
    if _counters(svc_idle) != _counters(svc_plain) or scale_events:
        violations.append(
            f"no-trigger: op counters differ or scaling fired "
            f"({scale_events} events)"
        )
    if not overhead < 0.05:
        violations.append(
            f"no-trigger: modeled overhead {overhead:.2%} not under 5%"
        )

    # ---- section 2: straggler + load surge ----------------------------
    surge_trace = ArrivalTrace.burst(
        rate=0.7 * capacity_rps, n=n_requests, seed=seed,
        burst_every=8, burst_size=4,
    )
    window_start = 4.0 * batch_seconds
    window = 60.0 * batch_seconds
    plan = StragglerPlan.single(
        rank=1, factor=straggler_factor,
        start=window_start, duration=window, seed=seed,
    )
    svc_static, resp_static = run_arm(
        problem, layout, surge_trace, deadline=deadline, seed=seed,
        stragglers=plan,
    )
    svc_elastic, resp_elastic = run_arm(
        problem, layout, surge_trace, deadline=deadline, seed=seed,
        stragglers=plan, elastic=elastic,
    )
    static = _arm_metrics(svc_static, resp_static, n_requests)
    elastic_arm = _arm_metrics(svc_elastic, resp_elastic, n_requests)
    elastic_arm["scale_events"] = _counters(svc_elastic)
    if not elastic_arm["makespan_seconds"] < static["makespan_seconds"]:
        violations.append(
            f"straggler: elastic makespan "
            f"{elastic_arm['makespan_seconds']:.4f}s not strictly below "
            f"static {static['makespan_seconds']:.4f}s"
        )
    if elastic_arm["slo_violation_rate"] > 0.0:
        violations.append(
            f"straggler: elastic arm violated SLOs "
            f"(rate {elastic_arm['slo_violation_rate']:.3f})"
        )
    n_scales = (
        svc_elastic.scale_outs + svc_elastic.scale_ins
        + svc_elastic.scale_arounds
    )
    if n_scales < 1:
        violations.append("straggler: elastic arm never scaled")

    # ---- section 3: bounded-staleness async RAS -----------------------
    with use_artifact_cache(ArtifactCache()):
        dec = Decomposition.from_box_partition(problem, 2, 2, 1)
        nullspace = np.ones((problem.a.n_rows, 1))
        precond = GDSWPreconditioner(dec, nullspace, dim=3)
        factors = np.ones(dec.n_subdomains)
        factors[1] = straggler_factor
        sync = gmres(problem.a, problem.b, preconditioner=precond, rtol=1e-8)
        sync_secs = sync.iterations * block_iteration_seconds(
            precond, layout, 1, rank_factors=factors
        )
        res = solve_async(
            problem.a, problem.b, precond,
            stale_ranks=[1], max_staleness=2, rtol=1e-8,
        )
        async_secs = async_solve_seconds(
            precond, layout, res, rank_factors=factors
        )
    if not res.converged:
        violations.append("staleness: async solve did not converge")
    if not async_secs < sync_secs:
        violations.append(
            f"staleness: async {async_secs:.4f}s not strictly below "
            f"sync {sync_secs:.4f}s under the straggler"
        )

    return {
        "bench": "elastic",
        "seed": int(seed),
        "n_requests": int(n_requests),
        "n_dofs": int(problem.a.n_rows),
        "partition": [2, 2, 1],
        "layout": "cpu_run(nodes=1, ranks_per_node=4)",
        "per_request_seconds": per_request_seconds,
        "capacity_rps": capacity_rps,
        "deadline_seconds": deadline,
        "straggler": plan.describe(),
        "no_trigger": {
            "identical": identical,
            "scale_events": int(scale_events),
            "overhead": float(overhead),
            "plain_makespan_seconds": float(svc_plain.clock),
            "elastic_makespan_seconds": float(svc_idle.clock),
        },
        "static": static,
        "elastic": elastic_arm,
        "staleness": {
            "converged": bool(res.converged),
            "iterations": int(res.iterations),
            "stale_iterations": int(res.stale_iterations),
            "flushes": int(res.flushes),
            "fell_back": bool(res.fell_back),
            "sync_iterations_baseline": int(sync.iterations),
            "sync_seconds": float(sync_secs),
            "async_seconds": float(async_secs),
        },
        "violations": violations,
    }
