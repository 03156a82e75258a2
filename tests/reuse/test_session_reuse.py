"""The SolverSession resolve()/solve_sequence() amortized-setup paths.

Acceptance property of the reuse subsystem: a 4-solve same-pattern
sequence yields numerics *identical* to four cold solves (same iterates,
same residual histories), while the priced per-solve setup after the
first equals the ``include_symbolic=False`` refactorization cost for
symbolic-reusable solvers.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import KrylovConfig, SchwarzConfig, SolverSession
from repro.bench.harness import model_machine
from repro.dd.local_solvers import LocalSolverSpec
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.runtime.layout import JobLayout
from repro.sparse.csr import CsrMatrix


@pytest.fixture(scope="module")
def problem():
    from repro.fem import elasticity_3d

    return elasticity_3d(4, 4, 4)


def _scaled(a: CsrMatrix, s: float) -> CsrMatrix:
    return CsrMatrix(a.indptr.copy(), a.indices.copy(), a.data * s, a.shape)


def _session(problem, kind="tacho", **kwargs):
    return SolverSession(
        problem,
        partition=(2, 2, 1),
        config=SchwarzConfig(local=LocalSolverSpec(kind=kind, ordering="nd")),
        krylov=KrylovConfig(rtol=1e-8),
        **kwargs,
    )


def _sequence_inputs(problem, k=4):
    rng = np.random.default_rng(77)
    bs = [problem.b] + [
        problem.b + 0.1 * rng.standard_normal(problem.b.size)
        for _ in range(k - 1)
    ]
    a_seq = [None] + [_scaled(problem.a, 1.0 + 0.03 * i) for i in range(1, k)]
    return bs, a_seq


@pytest.mark.parametrize("kind", ["tacho", "superlu", "iluk", "fastilu"])
def test_sequence_bit_identical_to_cold(problem, kind):
    bs, a_seq = _sequence_inputs(problem)
    with use_artifact_cache(ArtifactCache()):
        seq = _session(problem, kind).solve_sequence(bs, a_seq=a_seq)
    assert [r.setup_reused for r in seq] == [False, True, True, True]
    for i, (b, a) in enumerate(zip(bs, a_seq)):
        p = copy.copy(problem)
        p.b = np.asarray(b, dtype=np.float64)
        if a is not None:
            p.a = a
        with use_artifact_cache(ArtifactCache()):
            cold = _session(p, kind).solve()
        assert np.array_equal(seq[i].x, cold.x), f"solve {i} iterate drifted"
        assert seq[i].residual_norms == cold.residual_norms
        assert seq[i].iterations == cold.iterations


@pytest.mark.parametrize("kind", ["tacho", "iluk", "fastilu"])
def test_amortized_setup_is_the_refactorization_cost(problem, kind):
    layout = JobLayout.gpu_run(1, 2, machine=model_machine())
    bs, a_seq = _sequence_inputs(problem)
    with use_artifact_cache(ArtifactCache()):
        seq = _session(problem, kind).solve_sequence(bs, a_seq=a_seq)
    first = seq[0].priced_setup_seconds(layout)
    for r in seq[1:]:
        amortized = r.priced_setup_seconds(layout)
        # the reused solve is billed exactly the refactorization path
        assert amortized == pytest.approx(r.timings(layout).setup_seconds)
        assert amortized < first


def test_repeated_rhs_skips_setup_entirely(problem):
    with use_artifact_cache(ArtifactCache()):
        s = _session(problem)
        r0 = s.solve()
        rng = np.random.default_rng(5)
        r1 = s.resolve(b=problem.b + 0.2 * rng.standard_normal(problem.b.size))
        assert r1.setup_reused
        # trace carries the skip marker instead of a setup phase
        names = [sp.name for sp in r1.trace.children[0].children]
        assert "reuse/skip_setup" in names
        # unchanged values via a_new also hit the skip path
        r2 = s.resolve(a_new=_scaled(problem.a, 1.0))
        assert r2.setup_reused
        assert r0.n_coarse == r1.n_coarse == r2.n_coarse


def test_pattern_change_falls_back_to_cold(problem):
    from repro.sparse.spgemm import spgemm

    # same mesh/size, denser pattern (A^2 is SPD): forces a cold rebuild
    other_a = spgemm(problem.a, problem.a)
    with use_artifact_cache(ArtifactCache()):
        s = _session(problem)
        s.solve()
        r = s.resolve(a_new=other_a)
    assert not r.setup_reused
    assert r.converged


def test_refactor_trace_and_artifact_hits(problem):
    with use_artifact_cache(ArtifactCache()) as cache:
        s = _session(problem)
        s.solve()
        misses_after_cold = cache.misses
        r = s.resolve(a_new=_scaled(problem.a, 1.05))
        names = [sp.name for sp in r.trace.children[0].children]
        assert "reuse/refactor" in names
        # a second session over the same pattern reuses the plans
        s2 = _session(problem)
        s2.solve()
        assert cache.hits >= 3  # decomposition, overlap, interface
        assert cache.misses == misses_after_cold


def test_reuse_config_validation():
    """Reuse has no knob: the warm-start/recycling keyword is gone, and
    so is ``tracer=`` (every solve records into its own tracer)."""
    from repro.fem import laplace_3d

    for removed in ("reuse", "tracer"):
        with pytest.raises(TypeError, match=removed):
            SolverSession(laplace_3d(3), **{removed: True})


def test_single_precision_refactor(problem):
    with use_artifact_cache(ArtifactCache()):
        s = SolverSession(
            problem,
            partition=(2, 2, 1),
            config=SchwarzConfig(
                local=LocalSolverSpec(kind="tacho", ordering="nd"),
                precision="single",
            ),
            krylov=KrylovConfig(rtol=1e-6),
        )
        r0 = s.solve()
        r1 = s.resolve(a_new=_scaled(problem.a, 1.04))
        assert r1.setup_reused and r1.converged
        # cold reference must match bit for bit
        p2 = copy.copy(problem)
        p2.a = _scaled(problem.a, 1.04)
        cold = SolverSession(
            p2,
            partition=(2, 2, 1),
            config=SchwarzConfig(
                local=LocalSolverSpec(kind="tacho", ordering="nd"),
                precision="single",
            ),
            krylov=KrylovConfig(rtol=1e-6),
        ).solve()
        assert np.array_equal(r1.x, cold.x)
        assert r0.n_coarse == r1.n_coarse
