"""End-to-end fault-tolerant solves: the kill matrix, bit-identity,
the control arm, and the checkpoint-overhead budget."""

import numpy as np
import pytest

from repro.api import SolverSession
from repro.fem import elasticity_3d, laplace_3d
from repro.ft import FaultToleranceConfig, RankFailedError
from repro.ft.driver import MAX_FAILURES
from repro.resilience.inject import FaultPlan, FaultSpec

RTOL = 1e-7
KILL_OPS = {"setup": 2, "apply": 30, "reduce": 10}


@pytest.fixture(scope="module")
def laplace():
    return laplace_3d(6)


@pytest.fixture(scope="module")
def elasticity049():
    return elasticity_3d(4, poisson_ratio=0.49)


@pytest.fixture(scope="module")
def laplace_baseline(laplace):
    return SolverSession(laplace, partition=(2, 2, 1)).solve()


@pytest.fixture(scope="module")
def elasticity_baseline(elasticity049):
    return SolverSession(elasticity049, partition=(2, 2, 1)).solve()


def _ft_solve(problem, phase, strategy, rank=1, **kw):
    plan = FaultPlan.single(
        "rank_loss", rank, phase=phase, occurrence=KILL_OPS[phase]
    )
    cfg = FaultToleranceConfig(fault_plan=plan, strategy=strategy, **kw)
    return SolverSession(
        problem, partition=(2, 2, 1), policy=cfg
    ).solve()


class TestKillMatrixLaplace:
    @pytest.mark.parametrize("phase", ("setup", "apply", "reduce"))
    @pytest.mark.parametrize("strategy", ("shrink", "respawn"))
    def test_recovers_to_tolerance(
        self, laplace, laplace_baseline, phase, strategy
    ):
        res = _ft_solve(laplace, phase, strategy)
        assert res.converged
        assert str(res.status) == "recovered"
        assert res.final_relres <= RTOL * 1.01
        assert res.iterations <= 2 * laplace_baseline.iterations
        assert res.ft.recoveries == 1
        assert len(res.ft.failures) == 1
        kinds = [a.kind for a in res.health.actions]
        assert f"rank_{strategy}" in kinds
        assert "interpolated_restart" in kinds

    def test_shrink_drops_a_rank(self, laplace, laplace_baseline):
        res = _ft_solve(laplace, "apply", "shrink")
        assert res.n_ranks == laplace_baseline.n_ranks - 1

    def test_respawn_keeps_rank_count(self, laplace, laplace_baseline):
        res = _ft_solve(laplace, "apply", "respawn")
        assert res.n_ranks == laplace_baseline.n_ranks


class TestKillMatrixElasticity:
    @pytest.mark.parametrize("phase", ("setup", "apply", "reduce"))
    @pytest.mark.parametrize("strategy", ("shrink", "respawn"))
    def test_nearly_incompressible_recovers(
        self, elasticity049, elasticity_baseline, phase, strategy
    ):
        res = _ft_solve(elasticity049, phase, strategy)
        assert res.converged
        assert res.final_relres <= RTOL * 1.01
        assert res.iterations <= 2 * elasticity_baseline.iterations
        assert res.ft.recoveries == 1


class TestControlArm:
    def test_unprotected_run_dies(self, laplace):
        with pytest.raises(RankFailedError) as ei:
            _ft_solve(laplace, "apply", "shrink", protect=False)
        assert "MPI_ERR_PROC_FAILED" in str(ei.value)

    def test_failure_budget_enforced(self, laplace):
        # one death more than MAX_FAILURES recoveries; respawning keeps
        # rank 1 alive to die again
        plan = FaultPlan(
            [
                FaultSpec("rank_loss", rank=1, phase="reduce", occurrence=2 * k)
                for k in range(1, MAX_FAILURES + 2)
            ]
        )
        cfg = FaultToleranceConfig(fault_plan=plan, strategy="respawn")
        with pytest.raises(RankFailedError):
            SolverSession(
                laplace, partition=(2, 2, 1), policy=cfg
            ).solve()


class TestFaultFreeBitIdentity:
    def test_gmres_bit_identical(self, laplace, laplace_baseline):
        res = SolverSession(
            laplace, partition=(2, 2, 1), policy=FaultToleranceConfig()
        ).solve()
        base = laplace_baseline
        assert np.array_equal(res.x, base.x)
        assert res.iterations == base.iterations
        assert res.residual_norms == base.residual_norms
        assert res.reduces == base.reduces
        assert res.reduce_doubles == base.reduce_doubles
        assert res.ft.recoveries == 0 and res.ft.failures == []

    def test_checkpoint_overhead_under_budget(self, laplace):
        from repro.runtime.layout import JobLayout

        res = SolverSession(
            laplace, partition=(2, 2, 1), policy=FaultToleranceConfig()
        ).solve()
        layout = JobLayout.cpu_run(1, ranks_per_node=res.n_ranks)
        modeled = res.timings(layout).total_seconds
        ckpt = res.ft.modeled_checkpoint_seconds(layout)
        assert ckpt < 0.05 * modeled


class TestSequenceProtection:
    """Rank-loss protection covers resolve(): the setup is reused and a
    death scheduled past the first solve fires in the second."""

    def test_resolve_reuses_the_setup(self, laplace, laplace_baseline):
        session = SolverSession(
            laplace, partition=(2, 2, 1), policy=FaultToleranceConfig()
        )
        first = session.solve()
        again = session.resolve(b=laplace.b)
        assert not first.setup_reused and again.setup_reused
        assert again.precond is first.precond  # the same FtOperator
        assert np.array_equal(again.x, laplace_baseline.x)
        assert again.reduces == laplace_baseline.reduces
        assert again.ft.recoveries == 0 and again.ft.checkpoints >= 1

    def test_death_in_the_second_solve_is_recovered(
        self, laplace, laplace_baseline
    ):
        # the communicator's op counters run across the sequence: an
        # apply-phase op index past solve #1 lands in solve #2
        ops_per_solve = SolverSession(
            laplace, partition=(2, 2, 1), policy=FaultToleranceConfig()
        )
        ops_per_solve.solve()
        comm = ops_per_solve._state.protection.comm
        kill_at = comm._phase_ops["apply"] + KILL_OPS["apply"]

        cfg = FaultToleranceConfig(
            fault_plan=FaultPlan.single(
                "rank_loss", 1, phase="apply", occurrence=kill_at
            )
        )
        session = SolverSession(laplace, partition=(2, 2, 1), policy=cfg)
        first = session.solve()
        assert str(first.status) == "converged" and first.ft.failures == []
        second = session.resolve(b=laplace.b)
        assert str(second.status) == "recovered"
        assert second.ft.recoveries == 1 and len(second.ft.failures) == 1
        assert second.final_relres <= RTOL * 1.01
        assert second.n_ranks == laplace_baseline.n_ranks - 1
        # the shrunk partition is what the ladder keeps
        third = session.resolve(b=laplace.b)
        assert str(third.status) == "converged" and third.setup_reused
        assert third.n_ranks == second.n_ranks and third.ft.failures == []

    def test_verify_and_tracer_are_honoured(self, laplace):
        res = SolverSession(
            laplace, partition=(2, 2, 1), policy=FaultToleranceConfig(),
            verify=True,
        ).solve()
        assert res.verification is not None and res.verification.ok
        assert {c.name for c in res.trace.children} >= {"setup", "krylov"}
        assert int(res.trace.total("reduces")) == res.reduces


class TestDriverSurface:
    def test_mutually_exclusive_with_resilience(self, laplace):
        """One policy slot: the two runtimes cannot be combined."""
        from repro.resilience import ResilienceConfig

        with pytest.raises(TypeError, match="policy must be"):
            SolverSession(
                laplace,
                policy=(ResilienceConfig(), FaultToleranceConfig()),
            )

    def test_strategy_validated(self):
        with pytest.raises(ValueError, match="strategy"):
            FaultToleranceConfig(strategy="pray")

    def test_health_report_records_the_story(self, laplace):
        res = _ft_solve(laplace, "apply", "shrink")
        h = res.health
        assert len(h.faults) == 1 and h.faults[0].kind == "rank_loss"
        assert any("MPI_ERR_PROC_FAILED" in d for d in h.detections)
        assert h.restarts == 1
        text = h.describe()
        assert "rank_shrink" in text and "interpolated_restart" in text

    def test_trace_has_ft_spans(self, laplace):
        res = _ft_solve(laplace, "apply", "shrink")
        names = set()

        def walk(span):
            names.add(span.name)
            for ch in span.children:
                walk(ch)

        walk(res.trace)
        assert "ft/recovery" in names
        assert "ft/restart" in names
        assert "ft/setup_exchange" in names
