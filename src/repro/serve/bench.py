"""The multi-tenant serving benchmark behind ``BENCH_serve.json``.

For each tenant count ``t`` in ``tenant_counts``, a seeded request
stream of ``t`` same-pattern solves (one Laplace operator, ``t``
perturbed right-hand sides -- one per tenant) is served three ways:

* **unbatched** -- one request at a time on the full layout (the
  classic sequential service);
* **concurrent** -- the same width-1 batches as simultaneous MPS
  tenants: each solve is priced on a ``1/t`` GPU share and the stream
  costs the slowest tenant (Section VI's sharing economics applied to
  tenants);
* **batched** -- same-pattern coalescing on: the stream collapses into
  one width-``t`` block solve.

Reported per mode: modeled stream seconds, requests/second, and p99
modeled latency.  Two invariants become ``violations`` entries when
they fail:

1. batched throughput strictly exceeds unbatched throughput for every
   ``t >= 4`` (the same-pattern batching win);
2. every block-solve column's iteration count matches the
   corresponding single-RHS GMRES count within
   :data:`~repro.krylov.block.BLOCK_ITERATION_TOLERANCE`.

Run as ``python -m repro.serve --bench [--out BENCH_serve.json]``;
exits nonzero on any violation so CI can gate on it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.serve.overload import _percentile

__all__ = ["run_serve_bench"]


def _stream(service, fp, rhs_list, tenants):
    from repro.serve.request import SolveRequest

    for i, b in enumerate(rhs_list):
        service.submit(
            SolveRequest(
                rhs=b,
                matrix_fingerprint=fp,
                tenant=f"tenant-{i % tenants}",
                partition=(2, 2, 1),
            )
        )


def run_serve_bench(
    tenant_counts: Sequence[int] = (1, 2, 4, 8),
    elements: int = 6,
    rtol: float = 1e-7,
    seed: int = 7,
) -> dict:
    """Run the three-mode serving comparison over a seeded stream.

    ``seed`` drives the perturbed right-hand sides; the default (7)
    reproduces the committed ``BENCH_serve.json`` exactly.
    """
    from repro.bench.harness import model_machine
    from repro.fem import laplace_3d
    from repro.krylov import gmres
    from repro.krylov.block import BLOCK_ITERATION_TOLERANCE
    from repro.obs import use_tracer, Tracer
    from repro.reuse import ArtifactCache, use_artifact_cache
    from repro.runtime.layout import JobLayout
    from repro.serve.service import SolverService

    problem = laplace_3d(elements, elements, elements)
    layout = JobLayout.gpu_run(1, 2, machine=model_machine())
    rng = np.random.default_rng(seed)

    violations: List[str] = []
    by_tenants: Dict[str, dict] = {}
    for t in tenant_counts:
        rhs_list = [problem.b] + [
            problem.b + 0.1 * rng.standard_normal(problem.b.size)
            for _ in range(t - 1)
        ]

        modes = {}
        results_by_mode = {}
        for mode, batching, concurrent in (
            ("unbatched", False, False),
            ("concurrent", False, True),
            ("batched", True, False),
        ):
            with use_artifact_cache(ArtifactCache()):
                service = SolverService(
                    layout=layout, batching=batching, max_batch=max(t, 1)
                )
                fp = service.register(problem.a)
                tracer = Tracer()
                with use_tracer(tracer):
                    _stream(service, fp, rhs_list, t)
                    responses = service.drain(concurrent=concurrent)
                service.close()
            stream_secs = service.clock
            latencies = [r.latency_seconds for r in responses]
            modes[mode] = {
                "stream_seconds": stream_secs,
                "requests_per_second": t / stream_secs,
                "p99_latency_seconds": _percentile(latencies, 99),
                "mean_queue_wait_seconds": float(
                    np.mean([r.queue_wait_seconds for r in responses])
                ),
                "batch_widths": sorted(r.batch_width for r in responses),
                "reduces": int(tracer.reduces),
            }
            results_by_mode[mode] = sorted(
                responses, key=lambda r: r.request_id
            )

        # invariant 1: batching beats one-at-a-time serving at scale
        if t >= 4:
            rps_b = modes["batched"]["requests_per_second"]
            rps_u = modes["unbatched"]["requests_per_second"]
            if not rps_b > rps_u:
                violations.append(
                    f"t={t}: batched throughput {rps_b:.3e} req/s not "
                    f"above unbatched {rps_u:.3e} req/s"
                )

        # invariant 2: per-column iterations match single-RHS GMRES
        single_iters = []
        with use_artifact_cache(ArtifactCache()):
            probe = SolverService(layout=layout, batching=False)
            fp = probe.register(problem.a)
            # one width-1 solve builds the same preconditioner the
            # batched path used; reuse it for the single-RHS probes
            from repro.serve.request import SolveRequest

            probe.submit(SolveRequest(
                rhs=rhs_list[0], matrix_fingerprint=fp, partition=(2, 2, 1),
            ))
            probe.drain()
            precond = next(iter(probe.pool._sessions.values())).precond
            for b in rhs_list:
                single_iters.append(
                    gmres(problem.a, b, preconditioner=precond,
                          rtol=rtol).iterations
                )
            probe.close()
        block_iters = [
            r.iterations for r in results_by_mode["batched"]
        ]
        for c, (bi, si) in enumerate(zip(block_iters, single_iters)):
            if abs(bi - si) > BLOCK_ITERATION_TOLERANCE:
                violations.append(
                    f"t={t} column {c}: block iterations {bi} differ "
                    f"from single-RHS {si} beyond tolerance "
                    f"{BLOCK_ITERATION_TOLERANCE}"
                )
        by_tenants[str(t)] = {
            "modes": modes,
            "block_iterations": block_iters,
            "single_rhs_iterations": single_iters,
        }

    return {
        "bench": "serve",
        "n_dofs": int(problem.a.n_rows),
        "partition": [2, 2, 1],
        "rtol": rtol,
        "layout": "gpu_run(nodes=1, ranks_per_gpu=2)",
        "tenant_counts": list(tenant_counts),
        "iteration_tolerance": BLOCK_ITERATION_TOLERANCE,
        "tenants": by_tenants,
        "violations": violations,
    }
