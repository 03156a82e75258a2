"""Seeded inputs and the untraced (end-to-end) pass of the four workloads.

Every workload builds its inputs from ``--seed`` alone, hands the solver
stack only those generated inputs, and checks every returned solution
against a scipy CSR residual (scipy is the oracle, never the solver).
One *sample* is one cold start: a fresh ``ArtifactCache``, a cold
preconditioner build, the solves, and the same-pattern new-values path.
The runner discards one warm-up sample and then ``repeat``s samples until
the time budget is spent (at least ``MIN_SAMPLES``).  Every timed phase is
bracketed by a machine-state probe (see ``probe``), so that the report
can tell the samples taken on a quiet machine from the rest.
"""

from __future__ import annotations

import copy
import gc
import pathlib
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import KrylovConfig, SchwarzConfig, SolverSession
from repro.bench.harness import model_machine
from repro.dd.local_solvers import LocalSolverSpec
from repro.fem import elasticity_3d, laplace_3d
from repro.io import write_matrix_market
from repro.krylov import SolveStatus, gmres
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.runtime.layout import JobLayout
from repro.serve import SolveRequest, SolverService
from repro.sparse.csr import CsrMatrix

#: one timed phase: (seconds, witness), the witness being the slower of
#: the two machine-state probes that bracket it
Timed = Tuple[float, float]
#: one cold sample: the timed phases per metric and the iteration counts seen
Sample = Tuple[Dict[str, List[Timed]], List[int]]

PARTITION = (2, 2, 2)
#: the paper's Krylov configuration: single-reduce GMRES(30) to 1e-7
KRYLOV = dict(rtol=1e-7, restart=30, variant="single_reduce")
#: the benchmark's own acceptance threshold on ||b - A x|| / ||b||
RESIDUAL_TOL = 1e-6
MIN_SAMPLES = 5
ROUND_WIDTH = 4


@dataclass
class Ops:
    """Operations attempted and failed (one op = one solve or one request)."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(why)


def probe() -> float:
    """Seconds of a fixed pure-Python loop: the witness of the machine's state.

    A shared host flips, for seconds to a minute at a time, into a state
    where everything -- this loop, BLAS, a whole preconditioner build --
    runs about 1.5x slower, with the process still on-CPU (so
    ``cpu_wall_ratio`` stays at 1.0).  The loop takes ~6 ms and follows
    those flips exactly.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


class Phases:
    """Times the phases of one sample, a probe before and after each."""

    def __init__(self) -> None:
        self.timed: Dict[str, List[Timed]] = defaultdict(list)
        self._probe = probe()

    def time(self, metric: str, fn: Callable[[], object]):
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        before, self._probe = self._probe, probe()
        self.timed[metric].append((seconds, max(before, self._probe)))
        return out

    def add_time_to_solution(self) -> None:
        """The cold build paired with the first solve that followed it."""
        (setup, w0), (solve, w1) = self.timed["setup_s"][0], self.timed["solve_s"][0]
        self.timed["time_to_solution_s"].append((setup + solve, max(w0, w1)))


def scipy_oracle(a: CsrMatrix) -> sp.csr_matrix:
    """The operator as scipy sees it, built from the raw arrays alone."""
    return sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def check_solution(ops: Ops, what: str, converged: bool, oracle, x, b) -> None:
    """Record one op: converged status and the scipy residual must both hold."""
    x = np.asarray(x, dtype=np.float64)
    relres = float(np.linalg.norm(b - oracle @ x) / np.linalg.norm(b))
    ok = bool(converged) and np.isfinite(relres) and relres <= RESIDUAL_TOL
    ops.record(ok, f"{what}: converged={converged} relres={relres:.3e}")


def smooth_modulation(problem, rng: np.random.Generator) -> np.ndarray:
    """``1 + 0.1 sin(2 pi k.x + phi)`` per dof, seeded ``k`` and ``phi``.

    A smooth load perturbation: white noise moves the GMRES iteration
    count by seed (27..30 on elasticity), which would show up as
    run-to-run spread of ``solve_s`` that no code change caused.
    """
    k, phi = rng.uniform(0.5, 1.5, size=3), rng.uniform(0.0, 2.0 * np.pi)
    field = 1.0 + 0.1 * np.sin(2.0 * np.pi * (problem.coordinates @ k) + phi)
    return np.repeat(field, problem.dofs_per_node)


def scaled_same_pattern(a: CsrMatrix, rng: np.random.Generator) -> CsrMatrix:
    """``D A D`` with a seeded positive diagonal: same pattern, still SPD."""
    d = 1.0 + 0.1 * rng.random(a.n_rows)
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    return CsrMatrix(a.indptr, a.indices, d[rows] * a.data * d[a.indices], a.shape)


def rod_diffusion(n: int, rng: np.random.Generator, contrast: float = 1e4) -> CsrMatrix:
    """7-point ``-div(c grad u)`` on ``n^3`` cells, Dirichlet all round.

    ``c = contrast`` on three seeded axis-aligned rods (one per axis, so
    every seed cuts every partition plane once) and 1 elsewhere; face
    coefficients are harmonic means.
    """
    c = np.ones((n, n, n))
    for axis in range(3):
        i, j = rng.integers(1, n - 1, size=2)
        sel: list = [i, j]
        sel.insert(axis, slice(None))
        c[tuple(sel)] = contrast
    idx = np.arange(n**3).reshape(n, n, n)
    diag = np.zeros((n, n, n))
    rows, cols, vals = [], [], []
    for axis in range(3):
        lo: list = [slice(None)] * 3
        hi: list = [slice(None)] * 3
        lo[axis], hi[axis] = slice(0, n - 1), slice(1, n)
        lo_t, hi_t = tuple(lo), tuple(hi)
        w = 2.0 * c[lo_t] * c[hi_t] / (c[lo_t] + c[hi_t])
        il, ih = idx[lo_t].ravel(), idx[hi_t].ravel()
        rows += [il, ih]
        cols += [ih, il]
        vals += [-w.ravel(), -w.ravel()]
        diag[lo_t] += w
        diag[hi_t] += w
        for face in (0, n - 1):
            b: list = [slice(None)] * 3
            b[axis] = face
            diag[tuple(b)] += 2.0 * c[tuple(b)]
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    return CsrMatrix.from_coo(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (n**3, n**3),
    )


# ----------------------------------------------------------------------
# solver workloads: build_preconditioner / gmres / refactor
# ----------------------------------------------------------------------
@dataclass
class SolverInputs:
    problem: object
    a_new: CsrMatrix
    oracle: sp.csr_matrix
    oracle_new: sp.csr_matrix
    session: SolverSession
    assemble_s: float


@dataclass(frozen=True)
class SolverWorkload:
    """Cold build, first solve and refactor of one local-solver kind."""

    name: str
    why: str
    assemble: Callable[[int], object]
    n: int
    smoke_n: int
    local: LocalSolverSpec
    #: timed solves per cold sample: cheap solves are repeated so that
    #: every phase is measured for a comparable share of the run
    solves: int
    #: timed refactors per cold sample (the second one returns to ``a``)
    refactors: int
    requests_per_solve: int = 1

    def prepare(self, seed: int, smoke: bool, workdir: pathlib.Path) -> SolverInputs:
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        problem = copy.copy(self.assemble(self.smoke_n if smoke else self.n))
        assemble_s = time.perf_counter() - t0
        problem.b = problem.b * smooth_modulation(problem, rng)
        a_new = scaled_same_pattern(problem.a, rng)
        session = SolverSession(
            problem,
            partition=PARTITION,
            config=SchwarzConfig(local=self.local),
            krylov=KrylovConfig(**KRYLOV),
        )
        return SolverInputs(
            problem, a_new, scipy_oracle(problem.a), scipy_oracle(a_new),
            session, assemble_s,
        )

    def sample(self, inp: SolverInputs, ops: Ops, check_refactor: bool) -> Sample:
        a, b = inp.problem.a, inp.problem.b
        phases = Phases()
        with use_artifact_cache(ArtifactCache()):
            m = phases.time("setup_s", inp.session.build_preconditioner)
        iterations = set()
        for _ in range(self.solves):
            res = phases.time(
                "solve_s", lambda: gmres(a, b, preconditioner=m, **KRYLOV)
            )
            check_solution(ops, "solve", res.converged, inp.oracle, res.x, b)
            iterations.add(res.iterations)
        for a_next in (inp.a_new, a)[: self.refactors]:
            phases.time("refactor_s", lambda: m.refactor(a_next))
            if check_refactor and a_next is inp.a_new:
                res = gmres(a_next, b, preconditioner=m, **KRYLOV)
                check_solution(
                    ops, "solve after refactor", res.converged,
                    inp.oracle_new, res.x, b,
                )
        phases.add_time_to_solution()
        return phases.timed, sorted(iterations)


# ----------------------------------------------------------------------
# serving workload: .mtx in, spectral coarse space, block multi-RHS GMRES
# ----------------------------------------------------------------------
SERVE_CONFIG = SchwarzConfig(coarse_space="spectral", dim=3, tau=0.12)


@dataclass
class ServeInputs:
    path: pathlib.Path
    a: CsrMatrix
    a_new: CsrMatrix
    oracle: sp.csr_matrix
    oracle_new: sp.csr_matrix
    #: request stream: one cold RHS, one round of ROUND_WIDTH, one
    #: RHS for the first request after the values update
    rhs: np.ndarray
    assemble_s: float = 0.0

    def request(self, fp: str, k: int) -> SolveRequest:
        return SolveRequest(
            rhs=self.rhs[:, k],
            matrix_fingerprint=fp,
            tenant=f"tenant{k % ROUND_WIDTH}",
            config=SERVE_CONFIG,
            krylov=KrylovConfig(**KRYLOV),
            partition=PARTITION,
        )


@dataclass(frozen=True)
class ServeWorkload:
    """Closed loop, one client, against a fresh ``SolverService``."""

    name: str
    why: str
    n: int
    smoke_n: int
    requests_per_solve: int = ROUND_WIDTH

    def prepare(self, seed: int, smoke: bool, workdir: pathlib.Path) -> ServeInputs:
        rng = np.random.default_rng(seed)
        a = rod_diffusion(self.smoke_n if smoke else self.n, rng)
        a_new = scaled_same_pattern(a, rng)
        rhs = rng.standard_normal((a.n_rows, ROUND_WIDTH + 2))
        path = workdir / f"rods_seed{seed}.mtx"
        write_matrix_market(path, a)
        return ServeInputs(
            path, a, a_new, scipy_oracle(a), scipy_oracle(a_new), rhs
        )

    def new_service(self) -> SolverService:
        # 8 model ranks, one per subdomain: the default 4-rank layout
        # fails the first request of an 8-subdomain shard (see README)
        return SolverService(
            layout=JobLayout.gpu_run(1, 4, machine=model_machine()),
            batching=True, max_batch=ROUND_WIDTH,
        )

    def sample(self, inp: ServeInputs, ops: Ops, check_refactor: bool) -> Sample:
        phases = Phases()
        with use_artifact_cache(ArtifactCache()):
            svc = self.new_service()

            def cold_start():
                fp = svc.register_matrix_market(inp.path)
                svc.submit(inp.request(fp, 0))
                return fp, svc.drain()

            def one_round():
                for k in range(1, ROUND_WIDTH + 1):
                    svc.submit(inp.request(fp, k))
                return svc.drain()

            def values_update():
                svc.register(inp.a_new)
                svc.submit(inp.request(fp, ROUND_WIDTH + 1))
                return svc.drain()

            try:
                fp, cold = phases.time("setup_s", cold_start)
                served = phases.time("solve_s", one_round)
                updated = phases.time("refactor_s", values_update)
            finally:
                svc.close()
        answered = 0
        for oracle, group in ((inp.oracle, cold + served), (inp.oracle_new, updated)):
            for resp in group:
                answered += 1
                check_solution(
                    ops, f"request {resp.request_id}",
                    resp.status is SolveStatus.CONVERGED,
                    oracle, resp.x, inp.rhs[:, int(resp.request_id[1:])],
                )
        if answered != ROUND_WIDTH + 2:
            ops.record(False, f"{answered} responses for {ROUND_WIDTH + 2} requests")
        phases.add_time_to_solution()
        return phases.timed, [sum(r.iterations for r in served)]


WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            "elasticity_tacho",
            "the paper's headline configuration: multifrontal setup, "
            "per-subdomain supernodal solves in the apply loop",
            elasticity_3d, n=9, smoke_n=3,
            local=LocalSolverSpec(kind="tacho", ordering="nd"),
            solves=2, refactors=2,
        ),
        SolverWorkload(
            "laplace_superlu",
            "Gilbert-Peierls LU dominates setup, refactor is a full "
            "rebuild, scalar one-vector null space",
            laplace_3d, n=10, smoke_n=4,
            local=LocalSolverSpec(kind="superlu", ordering="nd"),
            solves=2, refactors=1,
        ),
        SolverWorkload(
            "laplace_fastilu",
            "vectorized Jacobi-sweep local solves and many iterations: "
            "the bypass workload for batched-local-solve changes",
            laplace_3d, n=14, smoke_n=4,
            local=LocalSolverSpec(
                kind="fastilu", ordering="nd", ilu_level=1,
                factor_sweeps=3, solve_sweeps=5,
            ),
            solves=4, refactors=2,
        ),
        ServeWorkload(
            "serve_mtx_spectral",
            ".mtx ingestion, algebraic partition, spectral coarse space, "
            "pooled session and block multi-RHS GMRES through SolverService",
            n=8, smoke_n=5,
        ),
    )
}


# ----------------------------------------------------------------------
def repeat(fn: Callable[[], object], seconds: float, samples: Optional[int], at_least: int):
    """Call ``fn`` until the budget is spent; returns ``(rows, cpu_wall_ratio)``.

    Without ``samples`` the loop stops once another call would overrun
    ``seconds`` (never before ``at_least`` calls).  The ratio is CPU
    seconds over wall seconds: well below 1.0 means the process was
    descheduled while it measured.
    """
    rows = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while True:
        gc.collect()
        rows.append(fn())
        elapsed = time.perf_counter() - wall0
        if samples is not None:
            if len(rows) >= samples:
                break
        elif len(rows) >= at_least and elapsed * (1 + 1 / len(rows)) > seconds:
            break
    return rows, (time.process_time() - cpu0) / elapsed


#: a phase counts as measured on a quiet machine when its witness is
#: within this factor of the fastest witness of the run; the disturbed
#: state is ~1.45x, the quiet state scatters by ~8 %
QUIET = 1.15


def quiet_samples(timed: Dict[str, List[Timed]]) -> Tuple[Dict[str, List[float]], float]:
    """Per metric, the seconds of the phases taken on a quiet machine.

    A metric with no quiet phase at all keeps every sample (the run then
    reports the disturbed state; nothing better is known).  Also returns
    the quiet share of all phases, the run's noise indicator.
    """
    best = min(w for rows in timed.values() for _, w in rows)
    out, quiet, total = {}, 0, 0
    for metric, rows in timed.items():
        kept = [s for s, w in rows if w <= QUIET * best]
        quiet, total = quiet + len(kept), total + len(rows)
        out[metric] = kept or [s for s, _ in rows]
    return out, quiet / total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
