"""The traced (per-layer) pass: every layer timed from outside the package.

Nothing inside ``repro`` is instrumented.  Setup is *replayed*: after a
reference cold build, the benchmark calls each layer's public function
in build order, feeding every stage the objects the previous stage
returned, and times each call.  The solve and the refactor run on the
real preconditioner with timing wrappers set as instance attributes
around the public ``apply``/``refactor`` methods of its parts.  One
*cycle* does all of that once; cycles repeat until the time budget is
spent and each metric reports its median over cycles.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.bench.harness import model_machine
from repro.dd.algebraic import build_spectral_coarse_space
from repro.dd.coarse_space import build_coarse_space, energy_minimizing_extension
from repro.dd.decomposition import Decomposition
from repro.dd.interface import analyze_interface
from repro.dd.local_solvers import LocalSolverSpec
from repro.dd.overlap import overlapping_subdomains
from repro.direct import direct_solver
from repro.ilu import FastIlu
from repro.io import read_matrix_market
from repro.krylov import gmres
from repro.krylov.block import block_gmres
from repro.obs import Tracer, use_tracer
from repro.ordering import nested_dissection
from repro.reuse import (
    ArtifactCache,
    partition_fingerprint,
    pattern_fingerprint,
    use_artifact_cache,
)
from repro.runtime.layout import JobLayout
from repro.serve.batcher import shard_key
from repro.sparse.blocks import extract_submatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.spgemm import spgemm, spgemm_flops

from workloads import (
    KRYLOV,
    ROUND_WIDTH,
    Ops,
    ServeWorkload,
    check_solution,
    repeat,
)

S, COUNT, RATIO = "s", "count", "ratio"
LOWER, HIGHER = "lower", "higher"

#: every per-layer metric: (name, unit, better).  BENCHMARK.json repeats
#: this list; the smoke test holds the two together.
PER_LAYER = [
    # -- feeding setup_s and time_to_solution_s ------------------------
    ("io.read_mtx_s", S, LOWER),
    ("dd.decomposition.partition_s", S, LOWER),
    ("dd.overlap.expand_s", S, LOWER),
    ("sparse.extract_submatrix_s", S, LOWER),
    ("ordering.nd_s", S, LOWER),
    ("direct.symbolic_s", S, LOWER),
    ("direct.numeric_s", S, LOWER),
    ("ilu.symbolic_s", S, LOWER),
    ("ilu.numeric_s", S, LOWER),
    ("dd.local_solvers.build_sum_s", S, LOWER),
    ("dd.local_solvers.build_max_s", S, LOWER),
    ("dd.interface.analyze_s", S, LOWER),
    ("dd.coarse_space.basis_s", S, LOWER),
    ("dd.algebraic.spectral_s", S, LOWER),
    ("dd.coarse_space.extension_s", S, LOWER),
    ("sparse.spgemm_s", S, LOWER),
    ("dd.coarse_factor_s", S, LOWER),
    ("reuse.fingerprint_s", S, LOWER),
    ("setup.unattributed_frac", RATIO, LOWER),
    ("dd.n_subdomains", COUNT, LOWER),
    ("dd.overlap_dofs", COUNT, LOWER),
    ("dd.coarse_dim", COUNT, LOWER),
    ("dd.phi_nnz", COUNT, LOWER),
    ("dd.a0_nnz", COUNT, LOWER),
    ("sparse.spgemm_flops", "flop", LOWER),
    ("dd.local_solvers.numeric_flops", "flop", LOWER),
    ("dd.local_solvers.numeric_bytes_computed", "B", LOWER),
    ("fem.assemble_s", S, LOWER),
    # -- feeding solve_s and drain_rps ---------------------------------
    ("dd.two_level.apply_s", S, LOWER),
    ("dd.two_level.apply_calls", COUNT, LOWER),
    ("dd.schwarz.apply_s", S, LOWER),
    ("dd.schwarz.local_solve_sum_s", S, LOWER),
    ("dd.schwarz.local_solve_max_s", S, LOWER),
    ("dd.schwarz.gather_scatter_s", S, LOWER),
    ("dd.coarse.apply_s", S, LOWER),
    ("sparse.spmv_s", S, LOWER),
    ("sparse.spmv_calls", COUNT, LOWER),
    ("krylov.gmres_self_s", S, LOWER),
    ("krylov.iterations", COUNT, LOWER),
    ("krylov.reduces", COUNT, LOWER),
    ("krylov.restarts", COUNT, LOWER),
    ("solve.apply_share", RATIO, LOWER),
    ("dd.local_solvers.solve_flops", "flop", LOWER),
    ("dd.local_solvers.solve_bytes_computed", "B", LOWER),
    # -- feeding refactor_s --------------------------------------------
    ("dd.local_solvers.refactor_sum_s", S, LOWER),
    ("dd.two_level.refactor_coarse_s", S, LOWER),
    ("reuse.symbolic_reused", COUNT, HIGHER),
    # -- feeding drain_rps only ----------------------------------------
    ("serve.register_s", S, LOWER),
    ("serve.submit_s", S, LOWER),
    ("serve.drain_s", S, LOWER),
    ("krylov.block_gmres_s", S, LOWER),
    ("krylov.block_vs_single_ratio", RATIO, LOWER),
    ("serve.overhead_frac", RATIO, LOWER),
    ("serve.batch_width_mean", COUNT, HIGHER),
    ("serve.retries", COUNT, LOWER),
    ("serve.sheds", COUNT, LOWER),
    ("serve.batch_failures", COUNT, LOWER),
    # -- feeding no end-to-end metric ----------------------------------
    ("obs.tracer_overhead_frac", RATIO, LOWER),
    ("bench.trace_overhead_frac", RATIO, LOWER),
    ("audit.model_setup_s", "model_s", LOWER),
    ("audit.model_solve_s", "model_s", LOWER),
]


class Timers:
    """Seconds and call counts accumulated per name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0
            self.calls[name] += 1

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed


@contextmanager
def patched(timers: Timers, targets) -> Iterator[None]:
    """Time public methods of live objects: ``targets`` is ``(obj, attr, name)``.

    The wrapper is an instance attribute shadowing the class's method, so
    only this object is affected and ``delattr`` restores it.
    """
    done = []
    try:
        for obj, attr, name in targets:
            setattr(obj, attr, timers.wrap(name, getattr(obj, attr)))
            done.append((obj, attr))
        yield
    finally:
        for obj, attr in done:
            delattr(obj, attr)


class TimedCsr(CsrMatrix):
    """The system matrix with timed SpMV (still a ``CsrMatrix`` to the solvers)."""

    def __init__(self, a: CsrMatrix, timers: Timers) -> None:
        super().__init__(a.indptr, a.indices, a.data, a.shape)
        self._timers = timers

    def matvec(self, x, out=None):
        with self._timers.span("spmv"):
            return super().matvec(x, out)

    def matmat(self, x):
        with self._timers.span("spmv"):
            return super().matmat(x)


# ----------------------------------------------------------------------
# setup replay
# ----------------------------------------------------------------------
#: replayed stages that tile the build (the rest are sub-shares of these)
_SETUP_STAGES = (
    "io.read_mtx_s",
    "reuse.fingerprint_s",
    "dd.decomposition.partition_s",
    "dd.overlap.expand_s",
    "sparse.extract_submatrix_s",
    "dd.local_solvers.build_sum_s",
    "dd.interface.analyze_s",
    "dd.coarse_space.basis_s",
    "dd.algebraic.spectral_s",
    "dd.coarse_space.extension_s",
    "sparse.spgemm_s",
    "dd.coarse_factor_s",
)


def _replay_local_phases(t: Timers, spec: LocalSolverSpec, a_i: CsrMatrix) -> None:
    """Symbolic and numeric phase of one local factorization, apart."""
    if spec.ordering == "nd":
        with t.span("ordering.nd_s"):
            nested_dissection(a_i)
    if spec.kind == "fastilu":
        solver, layer = FastIlu(
            level=spec.ilu_level, sweeps=spec.factor_sweeps,
            ordering=spec.ordering, damping=spec.factor_damping,
        ), "ilu"
    else:
        solver, layer = direct_solver(spec.kind, ordering=spec.ordering), "direct"
    with t.span(f"{layer}.symbolic_s"):
        solver.symbolic(a_i)
    with t.span(f"{layer}.numeric_s"):
        solver.numeric(a_i)


def replay_setup(t: Timers, session, m, out: Dict[str, float]) -> None:
    """Rebuild ``m``'s pipeline stage by stage through public functions.

    Mirrors ``SolverSession.build_preconditioner`` ->
    ``GDSWPreconditioner.__init__`` with the default extension (Tacho,
    ND) and coarse (Tacho, natural) solvers the workloads use.  The
    replay must land on the same coarse operator as the real build.
    """
    problem, cfg = session.problem, session.config
    a = problem.a
    with t.span("reuse.fingerprint_s"):
        for _ in range(3):  # decomposition, overlap and interface keys
            pattern_fingerprint(a)
    with t.span("dd.decomposition.partition_s"):
        if hasattr(problem, "grid"):
            dec = Decomposition.from_box_partition(problem, *session.partition)
        else:
            dec = Decomposition.algebraic(
                a, int(np.prod(session.partition)),
                dofs_per_node=getattr(problem, "dofs_per_node", 1),
            )
    with t.span("reuse.fingerprint_s"):
        for _ in range(2):  # overlap and interface keys
            partition_fingerprint(dec.node_parts)
    with t.span("dd.overlap.expand_s"):
        node_sets = overlapping_subdomains(dec, cfg.overlap)
        dof_sets = [dec.dofs_of_nodes(ns) for ns in node_sets]
    build_s: List[float] = []
    for dofs in dof_sets:
        with t.span("sparse.extract_submatrix_s"):
            a_i = extract_submatrix(a, dofs, dofs)
        t0 = time.perf_counter()
        cfg.local.build(a_i)
        build_s.append(time.perf_counter() - t0)
        _replay_local_phases(t, cfg.local, a_i)
    t.seconds["dd.local_solvers.build_sum_s"] = sum(build_s)
    out["dd.local_solvers.build_max_s"] = max(build_s)
    with t.span("dd.interface.analyze_s"):
        analysis = analyze_interface(dec, dim=cfg.dim)
    if cfg.coarse_space == "spectral":
        with t.span("dd.algebraic.spectral_s"):
            space = build_spectral_coarse_space(
                dec, analysis, tau=cfg.tau,
                max_vectors_per_subdomain=cfg.max_vectors_per_subdomain,
                node_sets=node_sets,
            )
    else:
        with t.span("dd.coarse_space.basis_s"):
            space = build_coarse_space(
                dec, analysis, session.nullspace(), variant=cfg.variant
            )
    with t.span("dd.coarse_space.extension_s"):
        phi, _, _ = energy_minimizing_extension(
            dec, analysis, space,
            lambda: direct_solver("tacho", ordering="nd"), solver_cache={},
        )
    with t.span("sparse.spgemm_s"):
        a_phi = spgemm(a, phi)
        flops = spgemm_flops(a, phi)
        phi_t = phi.transpose()
        a0 = spgemm(phi_t, a_phi)
        flops += spgemm_flops(phi_t, a_phi)
    with t.span("dd.coarse_factor_s"):
        LocalSolverSpec(kind="tacho", ordering="natural").build(a0)
    if (phi.nnz, a0.nnz, space.n_coarse) != (m.phi.nnz, m.a0.nnz, m.n_coarse):
        raise RuntimeError(
            "setup replay diverged from the real build: "
            f"replayed (phi nnz, A0 nnz, coarse dim) = "
            f"{(phi.nnz, a0.nnz, space.n_coarse)}, built "
            f"{(m.phi.nnz, m.a0.nnz, m.n_coarse)}"
        )
    locals_ = m.one_level.locals
    out.update({
        "dd.n_subdomains": dec.n_subdomains,
        "dd.overlap_dofs": sum(d.size for d in dof_sets) - a.n_rows,
        "dd.coarse_dim": space.n_coarse,
        "dd.phi_nnz": phi.nnz,
        "dd.a0_nnz": a0.nnz,
        "sparse.spgemm_flops": flops,
        "dd.local_solvers.numeric_flops": sum(
            loc.numeric_profile.total_flops for loc in locals_
        ),
        "dd.local_solvers.numeric_bytes_computed": sum(
            loc.numeric_profile.total_bytes for loc in locals_
        ),
    })


def _setup_metrics(t: Timers, reference_s: float, extra_s: float, out) -> None:
    for name in _SETUP_STAGES + (
        "ordering.nd_s", "direct.symbolic_s", "direct.numeric_s",
        "ilu.symbolic_s", "ilu.numeric_s",
    ):
        out[name] = t.seconds[name]
    attributed = sum(t.seconds[name] for name in _SETUP_STAGES) + extra_s
    out["setup.unattributed_frac"] = 1.0 - attributed / reference_s


# ----------------------------------------------------------------------
# solve and refactor on the real preconditioner
# ----------------------------------------------------------------------
def _apply_targets(m):
    targets = [(m, "apply", "two_level.apply"), (m.one_level, "apply", "schwarz.apply")]
    targets += [
        (loc, "apply", f"local_solve.{rank}")
        for rank, loc in enumerate(m.one_level.locals)
    ]
    return targets


def _solve_metrics(t: Timers, m, solve_s: float, out) -> None:
    local = [t.seconds[f"local_solve.{r}"] for r in range(len(m.one_level.locals))]
    apply_s, schwarz_s = t.seconds["two_level.apply"], t.seconds["schwarz.apply"]
    calls = t.calls["two_level.apply"]
    out.update({
        "dd.two_level.apply_s": apply_s,
        "dd.two_level.apply_calls": calls,
        "dd.schwarz.apply_s": schwarz_s,
        "dd.schwarz.local_solve_sum_s": sum(local),
        "dd.schwarz.local_solve_max_s": max(local),
        "dd.schwarz.gather_scatter_s": schwarz_s - sum(local),
        "dd.coarse.apply_s": apply_s - schwarz_s,
        "sparse.spmv_s": t.seconds["spmv"],
        "sparse.spmv_calls": t.calls["spmv"],
        "krylov.gmres_self_s": solve_s - apply_s - t.seconds["spmv"],
        "solve.apply_share": apply_s / solve_s,
        "dd.local_solvers.solve_flops": calls * sum(
            loc.solve_profile.total_flops for loc in m.one_level.locals
        ),
        "dd.local_solvers.solve_bytes_computed": calls * sum(
            loc.solve_profile.total_bytes for loc in m.one_level.locals
        ),
    })


def _traced_refactor(m, a_new: CsrMatrix, out) -> None:
    """``m.refactor(a_new)`` with the local and one-level parts timed."""
    t = Timers()
    targets = [(m.one_level, "refactor", "one_level")]
    targets += [(loc, "refactor", "local") for loc in m.one_level.locals]
    out["reuse.symbolic_reused"] = sum(
        bool(loc.symbolic_reusable) for loc in m.one_level.locals
    )
    with patched(t, targets):
        with t.span("total"):
            m.refactor(a_new)
    out["dd.local_solvers.refactor_sum_s"] = t.seconds["local"]
    out["dd.two_level.refactor_coarse_s"] = t.seconds["total"] - t.seconds["one_level"]


def solver_cycle(inp, ops: Ops) -> Dict[str, float]:
    """One traced cycle of a solver workload."""
    out: Dict[str, float] = {"fem.assemble_s": inp.assemble_s}
    a, b, session = inp.problem.a, inp.problem.b, inp.session
    with use_artifact_cache(ArtifactCache()):
        t0 = time.perf_counter()
        m = session.build_preconditioner()
        build_s = time.perf_counter() - t0
    t = Timers()
    replay_setup(t, session, m, out)
    _setup_metrics(t, build_s, 0.0, out)

    t0 = time.perf_counter()
    plain = gmres(a, b, preconditioner=m, **KRYLOV)
    plain_s = time.perf_counter() - t0
    t = Timers()
    a_timed = TimedCsr(a, t)
    with patched(t, _apply_targets(m)):
        t0 = time.perf_counter()
        res = gmres(a_timed, b, preconditioner=m, **KRYLOV)
        traced_s = time.perf_counter() - t0
    check_solution(ops, "traced solve", res.converged, inp.oracle, res.x, b)
    if res.iterations != plain.iterations:
        ops.record(False, "timing wrappers changed the iteration count")
    _solve_metrics(t, m, traced_s, out)
    out.update({
        "krylov.iterations": res.iterations,
        "krylov.reduces": res.reduces,
        "krylov.restarts": res.restarts,
        "bench.trace_overhead_frac": traced_s / plain_s - 1.0,
    })
    _traced_refactor(m, inp.a_new, out)

    # the facade runs the same build + solve under the repo's live Tracer
    with use_artifact_cache(ArtifactCache()):
        t0 = time.perf_counter()
        result = session.solve()
        facade_s = time.perf_counter() - t0
    check_solution(ops, "facade solve", result.converged, inp.oracle, result.x, b)
    out["obs.tracer_overhead_frac"] = facade_s / (build_s + plain_s) - 1.0
    priced = result.timings(JobLayout.cpu_run(1, machine=model_machine()))
    out["audit.model_setup_s"] = priced.first_setup_seconds
    out["audit.model_solve_s"] = priced.solve_seconds
    return out


# ----------------------------------------------------------------------
# the serving workload
# ----------------------------------------------------------------------
def _timed_round(svc, inp, fp):
    """Submit one round of ROUND_WIDTH requests and drain it."""
    t = Timers()
    for k in range(1, ROUND_WIDTH + 1):
        with t.span("submit"):
            svc.submit(inp.request(fp, k))
    with t.span("drain"):
        responses = svc.drain()
    return responses, t


def serve_cycle(workload: ServeWorkload, inp, ops: Ops) -> Dict[str, float]:
    """One traced cycle of the serving workload."""
    out: Dict[str, float] = {}
    with use_artifact_cache(ArtifactCache()):
        svc = workload.new_service()
        try:
            t0 = time.perf_counter()
            fp = svc.register_matrix_market(inp.path)
            out["serve.register_s"] = time.perf_counter() - t0
            svc.submit(inp.request(fp, 0))
            svc.drain()
            cold_s = time.perf_counter() - t0
            pooled = svc.pool.get(shard_key(inp.request(fp, 0), fp))
            m, session = pooled.precond, pooled.session

            t = Timers()
            with t.span("io.read_mtx_s"):
                a = read_matrix_market(inp.path)
            replay_setup(t, session, m, out)
            # the cold request also pays one width-1 block solve
            t0 = time.perf_counter()
            block_gmres(a, inp.rhs[:, :1], preconditioner=m, **KRYLOV)
            _setup_metrics(t, cold_s, time.perf_counter() - t0, out)

            responses, tr = _timed_round(svc, inp, fp)
            for resp in responses:
                k = int(resp.request_id[1:])
                check_solution(
                    ops, f"traced request {resp.request_id}", resp.converged,
                    inp.oracle, resp.x, inp.rhs[:, k],
                )
            drain_s = tr.seconds["drain"]
            out.update({
                "serve.submit_s": tr.seconds["submit"],
                "serve.drain_s": drain_s,
                "serve.batch_width_mean": float(
                    np.mean([r.batch_width for r in responses])
                ),
            })
            with use_tracer(Tracer()):
                _, live = _timed_round(svc, inp, fp)
            out["obs.tracer_overhead_frac"] = live.seconds["drain"] / drain_s - 1.0
            out.update({
                "serve.retries": svc.retries,
                "serve.sheds": svc.sheds,
                "serve.batch_failures": svc.batch_failures,
            })

            # the round's block solve, straight on the pooled preconditioner
            block = inp.rhs[:, 1 : ROUND_WIDTH + 1]
            t0 = time.perf_counter()
            plain = block_gmres(a, block, preconditioner=m, **KRYLOV)
            plain_s = time.perf_counter() - t0
            t = Timers()
            with patched(t, _apply_targets(m)):
                t0 = time.perf_counter()
                res = block_gmres(TimedCsr(a, t), block, preconditioner=m, **KRYLOV)
                traced_s = time.perf_counter() - t0
            if res.iterations != plain.iterations:
                ops.record(False, "timing wrappers changed the iteration counts")
            _solve_metrics(t, m, traced_s, out)
            single_s = 0.0
            restarts = 0
            for k in range(ROUND_WIDTH):
                t0 = time.perf_counter()
                one = gmres(a, block[:, k], preconditioner=m, **KRYLOV)
                single_s += time.perf_counter() - t0
                restarts += one.restarts
                if one.iterations != res.iterations[k]:
                    ops.record(False, f"block column {k} iterations differ from gmres")
            out.update({
                "krylov.iterations": sum(res.iterations),
                "krylov.reduces": res.reduces,
                "krylov.restarts": restarts,
                "krylov.block_gmres_s": plain_s,
                "krylov.block_vs_single_ratio": plain_s / single_s,
                "serve.overhead_frac": 1.0 - plain_s / drain_s,
                "bench.trace_overhead_frac": traced_s / plain_s - 1.0,
            })
            _traced_refactor(m, inp.a_new, out)
        finally:
            svc.close()
    return out


def run_cycles(workload, inp, ops: Ops, seconds: float, samples: Optional[int]):
    """Traced cycles until the budget is spent; median of each metric."""
    if isinstance(workload, ServeWorkload):
        cycle = lambda: serve_cycle(workload, inp, ops)  # noqa: E731
    else:
        cycle = lambda: solver_cycle(inp, ops)  # noqa: E731
    rows, _ = repeat(cycle, seconds, samples, at_least=1)
    return {
        name: float(np.median([row.get(name, 0.0) for row in rows]))
        for name, _, _ in PER_LAYER
    }, len(rows)
