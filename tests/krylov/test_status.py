"""Terminal status reporting of the Krylov solvers."""

import numpy as np
import pytest

from repro.fem import laplace_3d
from repro.krylov import SolveStatus, cg, gmres
from repro.resilience.detect import KrylovGuard


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(5)


class TestStatusEnum:
    def test_values_compare_as_strings(self):
        assert SolveStatus.CONVERGED == "converged"
        assert SolveStatus.MAXITER == "maxiter"
        assert SolveStatus.BREAKDOWN == "breakdown"
        assert SolveStatus.RECOVERED == "recovered"
        assert str(SolveStatus.CONVERGED) == "converged"


class TestGmresStatus:
    def test_converged(self, problem):
        res = gmres(problem.a, problem.b, rtol=1e-8)
        assert res.converged and res.status == SolveStatus.CONVERGED
        assert res.breakdown_reason is None

    def test_maxiter(self, problem):
        res = gmres(problem.a, problem.b, rtol=1e-14, maxiter=3, restart=3)
        assert not res.converged and res.status == SolveStatus.MAXITER

    def test_zero_rhs_converges_immediately(self, problem):
        res = gmres(problem.a, np.zeros_like(problem.b))
        assert res.status == SolveStatus.CONVERGED

    def test_guarded_nan_preconditioner_breaks_with_finite_iterate(
        self, problem
    ):
        """A preconditioner that goes NaN mid-solve must yield
        status=breakdown and a finite iterate to restart from."""
        state = {"k": 0}
        dinv = 1.0 / problem.a.diagonal()

        def flaky(v):
            state["k"] += 1
            out = dinv * v
            if state["k"] == 4:
                out = out.copy()
                out[0] = np.nan
            return out

        res = gmres(
            problem.a, problem.b, preconditioner=flaky,
            rtol=1e-10, guard=KrylovGuard(),
        )
        assert res.status == SolveStatus.BREAKDOWN
        assert res.breakdown_reason == "nonfinite"
        assert np.all(np.isfinite(res.x))

    def test_unguarded_nan_keeps_seed_behavior(self, problem):
        """Without a guard, NaNs propagate and the solve runs to maxiter
        reporting converged=False (never a false positive)."""
        dinv = 1.0 / problem.a.diagonal()
        state = {"k": 0}

        def flaky(v):
            state["k"] += 1
            out = dinv * v
            if state["k"] == 4:
                out = out.copy()
                out[0] = np.nan
            return out

        res = gmres(
            problem.a, problem.b, preconditioner=flaky,
            rtol=1e-10, maxiter=40,
        )
        assert not res.converged
        assert res.status == SolveStatus.MAXITER

    def test_stagnation_guard_fires(self, problem):
        res = gmres(
            problem.a, problem.b, rtol=1e-16, maxiter=500,
            guard=KrylovGuard(stall_window=30),
        )
        assert res.status == SolveStatus.BREAKDOWN
        assert res.breakdown_reason == "stagnation"
        assert np.all(np.isfinite(res.x))


class TestCgStatus:
    def test_converged(self, problem):
        res = cg(problem.a, problem.b, rtol=1e-8)
        assert res.converged and res.status == SolveStatus.CONVERGED

    def test_indefinite_matrix_reports_breakdown(self):
        from repro.sparse import CsrMatrix

        a = CsrMatrix.from_dense(np.diag([1.0, -1.0, 2.0]))
        b = np.ones(3)
        res = cg(a, b, rtol=1e-10)
        assert res.status == SolveStatus.BREAKDOWN
        assert res.breakdown_reason == "indefinite"

    def test_guarded_nan_rolls_back(self, problem):
        state = {"k": 0}
        dinv = 1.0 / problem.a.diagonal()

        def flaky(v):
            state["k"] += 1
            out = dinv * v
            if state["k"] == 4:
                out = out.copy()
                out[0] = np.nan
            return out

        # the NaN reaches the search direction first: CG stops on the
        # nonfinite curvature before it can touch the iterate
        res = cg(problem.a, problem.b, preconditioner=flaky, rtol=1e-10)
        assert res.status == SolveStatus.BREAKDOWN
        assert np.all(np.isfinite(res.x))
