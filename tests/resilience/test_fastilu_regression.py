"""FastILU divergence regression (no fault injection needed).

The Chow--Patel fixed-point iteration is only locally convergent: on a
stiff, nearly incompressible elasticity block (nu = 0.49) the undamped
synchronous Jacobi sweeps amplify the update every sweep where the
damped iteration contracts.  This is the genuine failure mode the
``fastilu_divergence`` fault emulates; here the real thing is exercised
end to end: detector, damping boost, and session recovery."""

import pytest

from repro import (
    KrylovConfig,
    ResilienceConfig,
    SchwarzConfig,
    SolverSession,
    SolveStatus,
)
from repro.dd.local_solvers import LocalSolverSpec
from repro.fem import elasticity_3d
from repro.ilu.fastilu import FastIlu
from repro.resilience.context import use_engine
from repro.resilience.detect import DivergenceError


@pytest.fixture(scope="module")
def stiff_problem():
    return elasticity_3d(4, poisson_ratio=0.49)


class TestDetector:
    def test_undamped_sweeps_diverge(self, stiff_problem):
        f = FastIlu(level=1, sweeps=3, damping=1.0)
        f.symbolic(stiff_problem.a).numeric(stiff_problem.a)
        assert f.diverged
        assert f.update_norms[-1] > 10.0 * f.update_norms[0]

    def test_damped_sweeps_contract(self, stiff_problem):
        f = FastIlu(level=1, sweeps=3, damping=0.35)
        f.symbolic(stiff_problem.a).numeric(stiff_problem.a)
        assert not f.diverged
        assert f.update_norms[-1] < f.update_norms[0]

    def test_engine_turns_divergence_into_breakdown(self, stiff_problem):
        engine = ResilienceConfig().protection()
        f = FastIlu(level=1, sweeps=3, damping=1.0)
        f.symbolic(stiff_problem.a)
        with use_engine(engine):
            with pytest.raises(DivergenceError) as ei:
                f.numeric(stiff_problem.a)
        assert len(ei.value.norms) >= 2

    def test_no_engine_keeps_seed_behavior(self, stiff_problem):
        """Without an engine the factorization completes (garbage
        factors, the seed behavior) and only flags ``diverged``."""
        f = FastIlu(level=1, sweeps=3, damping=1.0)
        f.symbolic(stiff_problem.a).numeric(stiff_problem.a)
        assert f.l is not None and f.u is not None
        assert f.diverged


class TestSessionRecovery:
    def test_ladder_recovers_undamped_fastilu(self, stiff_problem):
        """An undamped FastILU subdomain solver diverges for real; the
        ladder boosts damping (or falls back) and the solve converges."""
        res = SolverSession(
            stiff_problem,
            partition=(2, 2, 2),
            config=SchwarzConfig(
                local=LocalSolverSpec(kind="fastilu", factor_damping=1.0)
            ),
            krylov=KrylovConfig(rtol=1e-7, maxiter=2000),
            policy=ResilienceConfig(),
        ).solve()
        assert res.converged
        assert res.final_relres <= 1.01e-7
        assert res.status == SolveStatus.RECOVERED
        kinds = {a.kind for a in res.health.actions}
        assert kinds & {"boost_damping", "fallback_iluk"}
        assert res.health.refactorizations >= 1
