"""Bounded-staleness Schwarz: bit-identity, convergence, guard fallback."""

import numpy as np
import pytest

from repro.bench.harness import model_machine
from repro.dd import Decomposition, GDSWPreconditioner
from repro.elastic import (
    BoundedStalenessSchwarz,
    StalenessGuard,
    async_solve_seconds,
    solve_async,
)
from repro.elastic import async_schwarz
from repro.elastic.async_schwarz import MAX_STALE_APPLIES, STALE_STALL_WINDOW
from repro.fem import laplace_3d
from repro.krylov.gmres import gmres
from repro.runtime import JobLayout


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(5, 5, 5)


@pytest.fixture(scope="module")
def precond(problem):
    dec = Decomposition.from_box_partition(problem, 2, 2, 1)
    z = np.ones((problem.a.n_rows, 1))
    return GDSWPreconditioner(dec, z)


@pytest.fixture(scope="module")
def layout():
    return JobLayout.cpu_run(1, ranks_per_node=4, machine=model_machine())


class TestBitIdentity:
    def test_no_stale_ranks_is_passthrough(self, problem, precond):
        op = BoundedStalenessSchwarz(precond, [])
        plain = gmres(problem.a, problem.b, preconditioner=precond, rtol=1e-8)
        wrapped = gmres(problem.a, problem.b, preconditioner=op, rtol=1e-8)
        assert np.array_equal(plain.x, wrapped.x)
        assert plain.iterations == wrapped.iterations
        assert plain.reduces == wrapped.reduces
        assert op.stale_applies == 0 and op.flushes == 0

    def test_zero_staleness_is_passthrough(self, problem, precond):
        op = BoundedStalenessSchwarz(precond, [1], max_staleness=0)
        plain = gmres(problem.a, problem.b, preconditioner=precond, rtol=1e-8)
        wrapped = gmres(problem.a, problem.b, preconditioner=op, rtol=1e-8)
        assert np.array_equal(plain.x, wrapped.x)
        assert op.stale_applies == 0


class TestStaleApplications:
    def test_stale_rank_validated(self, precond):
        with pytest.raises(ValueError, match="out of range"):
            BoundedStalenessSchwarz(precond, [99])
        with pytest.raises(ValueError, match="max_staleness"):
            BoundedStalenessSchwarz(precond, [1], max_staleness=-1)

    def test_staleness_bound_forces_flushes(self, problem, precond):
        op = BoundedStalenessSchwarz(precond, [1], max_staleness=2)
        rng = np.random.default_rng(3)
        for _ in range(7):
            op.apply(rng.standard_normal(problem.a.n_rows))
        # pattern: sync, stale, stale, flush(sync), stale, stale, flush
        assert op.sync_applies == 3
        assert op.stale_applies == 4
        assert op.flushes == 2

    def test_async_solve_converges(self, problem, precond):
        res = solve_async(
            problem.a, problem.b, precond, stale_ranks=[1],
            max_staleness=2, rtol=1e-8,
        )
        assert res.converged
        assert res.stale_iterations > 0
        assert res.iterations == res.stale_iterations + res.sync_iterations
        r = problem.b - problem.a.matvec(res.x)
        assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(problem.b)


class TestGuard:
    def test_nonfinite_trips(self, precond):
        g = StalenessGuard(BoundedStalenessSchwarz(precond, [1]))
        assert g.on_residual(0, np.nan) == "nonfinite"

    def test_improving_residuals_pass(self, precond):
        g = StalenessGuard(BoundedStalenessSchwarz(precond, [1]))
        for i, r in enumerate([1.0, 0.5, 0.25, 0.125]):
            assert g.on_residual(i, r) is None

    def test_staleness_budget_trips(self, precond):
        op = BoundedStalenessSchwarz(precond, [1])
        op.stale_applies = MAX_STALE_APPLIES
        g = StalenessGuard(op)
        g.on_residual(0, 1.0)
        assert g.on_residual(1, 1.0) is None
        op.stale_applies += 1
        assert g.on_residual(2, 1.0) == "staleness_budget"

    def test_stagnation_trips_only_with_stale_ranks(self, precond):
        op = BoundedStalenessSchwarz(precond, [1])
        g = StalenessGuard(op)
        g.on_residual(0, 1.0)
        assert g.on_residual(STALE_STALL_WINDOW - 1, 1.0) is None
        assert g.on_residual(STALE_STALL_WINDOW, 1.0) == "stale_stagnation"
        healthy = StalenessGuard(BoundedStalenessSchwarz(precond, []))
        healthy.on_residual(0, 1.0)
        assert healthy.on_residual(STALE_STALL_WINDOW, 1.0) is None

    def test_fallback_still_meets_tolerance(
        self, problem, precond, monkeypatch
    ):
        # a tiny staleness budget forces the synchronous fallback
        monkeypatch.setattr(async_schwarz, "MAX_STALE_APPLIES", 3)
        res = solve_async(
            problem.a, problem.b, precond, stale_ranks=[1],
            max_staleness=4, rtol=1e-8,
        )
        assert res.fell_back
        assert res.converged
        r = problem.b - problem.a.matvec(res.x)
        assert np.linalg.norm(r) <= 1e-7 * np.linalg.norm(problem.b)


class TestPricing:
    def test_stale_iterations_cheaper_under_straggler(
        self, problem, precond, layout
    ):
        factors = np.ones(precond.dec.n_subdomains)
        factors[1] = 8.0
        res = solve_async(
            problem.a, problem.b, precond, stale_ranks=[1],
            max_staleness=2, rtol=1e-8,
        )
        async_secs = async_solve_seconds(
            precond, layout, res, rank_factors=factors
        )
        sync = gmres(problem.a, problem.b, preconditioner=precond, rtol=1e-8)
        from repro.runtime.timings import block_iteration_seconds

        sync_secs = sync.iterations * block_iteration_seconds(
            precond, layout, 1, rank_factors=factors
        )
        assert async_secs < sync_secs
