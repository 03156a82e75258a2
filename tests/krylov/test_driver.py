"""The unified Krylov driver on its own: dispatch and the restart loop."""

import numpy as np
import pytest

from repro.api import KrylovConfig
from repro.fem import laplace_3d
from repro.krylov import SolveStatus, block_gmres, cg, gmres, pipelined_cg
from repro.krylov import driver
from repro.krylov.driver import (
    Protection,
    Repair,
    run_krylov,
    solve_with_restarts,
)
from repro.resilience.detect import KrylovGuard


@pytest.fixture(scope="module")
def system():
    p = laplace_3d(5)
    return p.a, p.b


class Boom(RuntimeError):
    """Stands in for a lost rank: raised out of a running attempt."""


class _FailingGuard(KrylovGuard):
    """Records like any watchdog; fails at iteration ``after``."""

    def __init__(self, after, raises):
        super().__init__(stall_window=0)
        self.after, self.raises = after, raises

    def on_residual(self, it, est):
        super().on_residual(it, est)
        if self.after is not None and it >= self.after:
            if self.raises:
                raise Boom(f"died at iteration {it}")
            return "scripted"
        return None


class _Scripted(Protection):
    """Fails the first ``failures`` attempts after ``after`` iterations
    each -- as a breakdown result, or by raising :class:`Boom` -- and
    repairs by resuming from the failed attempt's iterate."""

    recoverable = (Boom,)

    def __init__(self, failures, after, raises=False, resume=True):
        self.failures, self.after = failures, after
        self.raises, self.resume = raises, resume
        self.guards, self.resumed_from = [], []

    def watchdog(self):
        failing = len(self.guards) < self.failures
        guard = _FailingGuard(self.after if failing else None, self.raises)
        self.guards.append(guard)
        return guard

    def recover(self, failure, operator, a, b):
        if isinstance(failure, Boom):
            # what a checkpoint would hold: a few plain iterations
            x0 = gmres(a, b, rtol=1e-30, maxiter=2).x if self.resume else None
        else:
            x0 = failure.x
        self.resumed_from.append(x0)
        return Repair(operator, x0)


class TestDispatch:
    @pytest.mark.parametrize(
        "method,solver", [("gmres", gmres), ("cg", cg), ("pipelined_cg", pipelined_cg)]
    )
    def test_method_picks_the_solver(self, system, method, solver):
        a, b = system
        kry = KrylovConfig(method=method, rtol=1e-9)
        got = run_krylov(kry, a, b, None)
        ref = solver(a, b, rtol=1e-9)
        assert type(got) is type(ref)
        assert np.array_equal(got.x, ref.x)
        assert got.residual_norms == ref.residual_norms

    def test_block_rhs_runs_the_block_solver(self, system):
        a, b = system
        rhs = np.stack([b, 2.0 * b], axis=1)
        got = run_krylov(KrylovConfig(rtol=1e-9), a, rhs, None)
        ref = block_gmres(a, rhs, rtol=1e-9)
        assert np.array_equal(got.x, ref.x)
        assert got.iterations == ref.iterations

    def test_block_pipelined_cg_is_rejected(self, system):
        a, b = system
        with pytest.raises(ValueError, match="batched serving path"):
            run_krylov(
                KrylovConfig(method="pipelined_cg"), a, np.stack([b, b], axis=1),
                None,
            )

    def test_overrides_win_over_the_config(self, system):
        a, b = system
        res = run_krylov(KrylovConfig(rtol=1e-12), a, b, None, rtol=1e-2, maxiter=3)
        assert res.iterations <= 3


@pytest.fixture()
def rtols(monkeypatch):
    """The effective tolerance each attempt of the loop was handed."""
    seen = []

    def spy(kry, a, b, operator, **kw):
        seen.append(kw["rtol"])
        return run_krylov(kry, a, b, operator, **kw)

    monkeypatch.setattr(driver, "run_krylov", spy)
    return seen


class TestRestartLoop:
    def test_unprotected_solve_is_one_plain_attempt(self, system, rtols):
        a, b = system
        out = solve_with_restarts(KrylovConfig(rtol=1e-9), a, b, None)
        ref = gmres(a, b, rtol=1e-9)
        assert np.array_equal(out.x, ref.x)
        assert out.iterations == ref.iterations
        assert out.residual_norms == ref.residual_norms
        assert out.reduces == ref.reduces
        assert rtols == [1e-9] and out.status is SolveStatus.CONVERGED

    def test_anchor_is_kept_across_two_restarts(self, system, rtols):
        a, b = system
        rtol = 1e-9
        prot = _Scripted(failures=2, after=3)
        out = solve_with_restarts(KrylovConfig(rtol=rtol), a, b, None, prot)
        assert out.converged and len(rtols) == 3
        target_abs = rtol * float(np.sqrt(b @ b))
        for rtol_eff, x0 in zip(rtols[1:], prot.resumed_from):
            rnow = np.linalg.norm(b - a.matvec(x0))
            # every restart aims at the FIRST attempt's absolute target
            assert rtol_eff * rnow == pytest.approx(target_abs, rel=1e-12)
        assert rtols[2] > rtols[1] > rtols[0]
        assert np.linalg.norm(b - a.matvec(out.x)) <= target_abs * (1 + 1e-9)

    def test_books_are_kept_when_an_attempt_raises(self, system, rtols):
        a, b = system
        prot = _Scripted(failures=1, after=4, raises=True)
        out = solve_with_restarts(KrylovConfig(rtol=1e-9), a, b, None, prot)
        died, finished = prot.guards
        assert died.iters == 4 and len(died.history) == 4
        # iterations and history: the dead attempt's watchdog + the rest
        assert out.iterations == died.iters + finished.iters
        assert out.residual_norms[:4] == died.history
        assert len(out.residual_norms) > 4 + finished.iters  # + beta0
        assert out.converged and rtols[1] > rtols[0]

    def test_cold_repair_restarts_at_the_original_tolerance(self, system, rtols):
        a, b = system
        prot = _Scripted(failures=1, after=2, raises=True, resume=False)
        out = solve_with_restarts(KrylovConfig(rtol=1e-9), a, b, None, prot)
        assert rtols == [1e-9, 1e-9] and out.converged

    def test_iteration_budget_ends_in_maxiter_not_an_exception(self, system):
        a, b = system
        prot = _Scripted(failures=99, after=2, raises=True)
        out = solve_with_restarts(
            KrylovConfig(rtol=1e-12, maxiter=4), a, b, None, prot
        )
        assert out.status is SolveStatus.MAXITER and not out.converged
        assert out.iterations == 4
        assert out.x is prot.resumed_from[-1]  # the last repaired iterate

    def test_declined_repair_reraises_the_failure(self, system):
        a, b = system

        class GivesUp(_Scripted):
            def recover(self, failure, operator, a, b):
                return None

        prot = GivesUp(failures=1, after=2, raises=True)
        with pytest.raises(Boom):
            solve_with_restarts(KrylovConfig(), a, b, None, prot)

    def test_declined_breakdown_returns_the_breakdown(self, system):
        a, b = system

        class GivesUp(_Scripted):
            def recover(self, failure, operator, a, b):
                return None

        out = solve_with_restarts(
            KrylovConfig(rtol=1e-12), a, b, None, GivesUp(1, 2)
        )
        assert out.status is SolveStatus.BREAKDOWN
        assert out.breakdown_reason == "scripted" and out.iterations == 2

    def test_two_observers_share_the_one_slot(self, system):
        a, b = system
        seen = {"verify": 0, "policy": 0}

        class Obs:
            def __init__(self, key):
                self.key = key

            def on_cycle(self, **kw):
                seen[self.key] += 1

        class WithObserver(Protection):
            def observer(self, operator, watchdog, iterations):
                return Obs("policy")

        solve_with_restarts(
            KrylovConfig(rtol=1e-9, restart=5), a, b, None, WithObserver(),
            observer=Obs("verify"),
        )
        assert seen["verify"] == seen["policy"] > 1
