"""The k-solve amortized-setup benchmark behind ``BENCH_reuse.json``.

Runs, for every local solver kind of Table I, a k-solve same-pattern
sequence (scaled stiffness matrices, perturbed right-hand sides) through
:meth:`~repro.api.SolverSession.solve_sequence` and prices each solve:

* the first solve pays ``first_setup_seconds`` (symbolic + numeric);
* every later solve pays only the executed refactorization, which for
  symbolic-reusable kinds (Tacho, ILU(k), FastILU) is the
  ``include_symbolic=False`` cost -- the paper's "Numerical Setup Time";
* SuperLU intentionally re-pays its symbolic phase every time
  (``symbolic_reusable=False``: partial pivoting couples structure to
  values), so its amortization comes only from the shared extension and
  coarse solvers.  This prices the paper's SuperLU, which re-runs its
  symbolic setup on every refactorization; the executed refactorization
  replays the recorded pivot sequence when the values allow it
  (:meth:`~repro.direct.gp_lu.GilbertPeierlsLU.replay`), which changes
  wall seconds but no factor, iteration count or priced second.

Two invariants are asserted (and reported as ``violations``):

1. amortized setup < first-solve setup for every symbolic-reusable kind;
2. iteration counts of the reused solves equal the cold counts solve by
   solve (the default reuse path is bit-identical).

Run as ``python -m repro reuse [--out BENCH_reuse.json]``; exits nonzero
on any violation so CI can gate on it.
"""

from __future__ import annotations

import copy
from typing import List, Optional

import numpy as np

__all__ = ["run_reuse_bench", "summary", "REUSE_KINDS"]

#: local solver kinds benchmarked (Table I of the paper)
REUSE_KINDS = ("tacho", "superlu", "iluk", "fastilu")


def _scaled(a, s: float):
    from repro.sparse.csr import CsrMatrix

    return CsrMatrix(a.indptr.copy(), a.indices.copy(), a.data * s, a.shape)


def run_reuse_bench(
    k: int = 4,
    elements: int = 6,
    partition=(2, 2, 1),
    rtol: float = 1e-7,
) -> dict:
    """Run the k-solve sequence benchmark for every solver kind.

    Returns a JSON-ready dict: per-kind first/amortized priced setup,
    per-solve sequence totals, cold-vs-reused iteration counts, and a
    ``violations`` list that is empty when every invariant holds.
    """
    from repro.api import KrylovConfig, SchwarzConfig, SolverSession
    from repro.bench.harness import model_machine
    from repro.dd.local_solvers import LocalSolverSpec
    from repro.reuse.cache import ArtifactCache, use_artifact_cache
    from repro.runtime.layout import JobLayout

    from repro.fem import elasticity_3d

    problem = elasticity_3d(elements, elements, elements)
    layout = JobLayout.gpu_run(1, 2, machine=model_machine())
    rng = np.random.default_rng(2024)
    bs = [problem.b] + [
        problem.b + 0.1 * rng.standard_normal(problem.b.size)
        for _ in range(k - 1)
    ]
    a_seq: List[Optional[object]] = [None] + [
        _scaled(problem.a, 1.0 + 0.03 * i) for i in range(1, k)
    ]

    def _mk(prob, kind):
        return SolverSession(
            prob,
            partition=partition,
            config=SchwarzConfig(
                local=LocalSolverSpec(kind=kind, ordering="nd")
            ),
            krylov=KrylovConfig(rtol=rtol),
        )

    violations: List[str] = []
    kinds = {}
    for kind in REUSE_KINDS:
        with use_artifact_cache(ArtifactCache()) as cache:
            session = _mk(problem, kind)
            seq = session.solve_sequence(bs, a_seq=a_seq)
            cache_hits, cache_misses = cache.hits, cache.misses
        cold_iters = []
        for b, a in zip(bs, a_seq):
            p = copy.copy(problem)
            p.b = np.asarray(b, dtype=np.float64)
            if a is not None:
                p.a = a
            with use_artifact_cache(ArtifactCache()):
                cold_iters.append(_mk(p, kind).solve().iterations)

        setup = [r.priced_setup_seconds(layout) for r in seq]
        solve = [r.timings(layout).solve_seconds for r in seq]
        iters = [r.iterations for r in seq]
        reusable = seq[0].precond.one_level.locals[0].symbolic_reusable
        first, amortized = setup[0], setup[1:]
        if reusable and any(s >= first for s in amortized):
            violations.append(
                f"{kind}: amortized setup {max(amortized):.3e} not below "
                f"first-solve setup {first:.3e}"
            )
        if iters != cold_iters:
            violations.append(
                f"{kind}: reused iteration counts {iters} differ from "
                f"cold counts {cold_iters}"
            )
        kinds[kind] = {
            "symbolic_reusable": bool(reusable),
            "iterations": iters,
            "cold_iterations": cold_iters,
            "first_setup_seconds": first,
            "amortized_setup_seconds": amortized,
            "solve_seconds": solve,
            "sequence_total_seconds": float(sum(setup) + sum(solve)),
            "cold_total_seconds": float(setup[0] * k + sum(solve)),
            "setup_reused": [r.setup_reused for r in seq],
            "artifact_cache": {"hits": cache_hits, "misses": cache_misses},
        }

    return {
        "bench": "reuse",
        "k_solves": k,
        "n_dofs": int(problem.a.n_rows),
        "partition": list(partition),
        "rtol": rtol,
        "layout": "gpu_run(nodes=1, ranks_per_gpu=2)",
        "kinds": kinds,
        "violations": violations,
    }


def summary(doc: dict) -> List[str]:
    """One amortization line per solver kind."""
    return [
        f"{kind:8s} "
        f"({'reusable' if rec['symbolic_reusable'] else 're-symbolic'}): "
        f"first {rec['first_setup_seconds']:.3e}s, "
        f"amortized {min(rec['amortized_setup_seconds']):.3e}s, "
        f"iters {rec['iterations']}"
        for kind, rec in sorted(doc["kinds"].items())
    ]
