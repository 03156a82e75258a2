"""Session-level recovery: every fault kind, the control arm, overhead."""

import warnings

import numpy as np
import pytest

from repro import (
    FaultPlan,
    KrylovConfig,
    ResilienceConfig,
    SchwarzConfig,
    SolverSession,
    SolveStatus,
)
from repro.dd.local_solvers import LocalSolverSpec
from repro.fem import laplace_3d
from repro.resilience.detect import BREAKDOWN_EXCEPTIONS

RTOL = 1e-7


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(8)


def _config_for(kind):
    if kind == "fastilu_divergence":
        return SchwarzConfig(local=LocalSolverSpec(kind="fastilu"))
    if kind == "precision_overflow":
        return SchwarzConfig(precision="single")
    return SchwarzConfig()


def _solve(problem, kind, protect=True, maxiter=1000):
    plan = FaultPlan.single(kind, rank=1, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # injected NaN/inf arithmetic
        return SolverSession(
            problem,
            partition=(2, 2, 2),
            config=_config_for(kind),
            krylov=KrylovConfig(rtol=RTOL, maxiter=maxiter),
            policy=ResilienceConfig(fault_plan=plan, protect=protect),
        ).solve()


def _span_names(span, out=None):
    if out is None:
        out = []
    out.append(span.name)
    for c in span.children:
        _span_names(c, out)
    return out


def _sum_counter(span, key):
    total = span.counters.get(key, 0.0)
    for c in span.children:
        total += _sum_counter(c, key)
    return total


class TestRecoveryPerFaultKind:
    @pytest.mark.parametrize(
        "kind",
        [
            "halo_corrupt",
            "pivot_breakdown",
            "precond_nan",
            "fastilu_divergence",
            "precision_overflow",
        ],
    )
    def test_resilient_arm_converges_and_reports(self, problem, kind):
        res = _solve(problem, kind)
        assert res.converged
        assert np.all(np.isfinite(res.x))
        assert res.final_relres <= RTOL * 1.01
        assert res.status == SolveStatus.RECOVERED
        assert res.health is not None and res.health.recovered
        assert res.health.faults, "the fault must actually have fired"
        assert res.health.actions, "recovery must have acted"
        # recovery surfaced on the trace as counters
        assert _sum_counter(res.trace, "resilience_actions") >= 1
        assert _sum_counter(res.trace, "resilience_faults") >= 1

    @pytest.mark.parametrize(
        "kind",
        [
            "halo_corrupt",
            "pivot_breakdown",
            "precond_nan",
            "fastilu_divergence",
            "precision_overflow",
        ],
    )
    def test_control_arm_demonstrably_fails(self, problem, kind):
        """protect=False with the same fault must fail: either a raised
        breakdown or a non-converged solve."""
        try:
            res = _solve(problem, kind, protect=False, maxiter=120)
        except BREAKDOWN_EXCEPTIONS:
            return
        assert not (res.converged and res.final_relres <= RTOL * 1.01)


class TestRecoveryDetails:
    def test_pivot_breakdown_bills_refactorization(self, problem):
        res = _solve(problem, "pivot_breakdown")
        assert res.health.refactorizations >= 1
        assert "resilience/refactor" in _span_names(res.trace)
        # the re-billed kernels land in the priced setup profile
        from repro.bench import model_machine
        from repro.runtime import JobLayout

        layout = JobLayout.cpu_run(1, machine=model_machine())
        clean = SolverSession(
            problem, partition=(2, 2, 2),
            krylov=KrylovConfig(rtol=RTOL),
        ).solve()
        t_f = res.timings(layout)
        t_c = clean.timings(layout)
        assert t_f.setup_seconds > t_c.setup_seconds

    def test_precision_promotion_reported(self, problem):
        res = _solve(problem, "precision_overflow")
        assert res.health.precision_promoted
        assert any(a.kind == "promote_precision" for a in res.health.actions)
        assert res.health.restarts >= 1
        # the wasted single-precision setup was re-billed
        assert res.health.refactorizations >= res.n_ranks

    def test_health_describe_is_readable(self, problem):
        res = _solve(problem, "precond_nan")
        text = res.health.describe()
        assert "recovered" in text
        assert "precond_nan" in text


class TestFaultFreeOverhead:
    def test_iteration_counts_unchanged(self, problem):
        clean = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL)
        ).solve()
        guarded = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL),
            policy=ResilienceConfig(),
        ).solve()
        assert guarded.iterations == clean.iterations
        assert guarded.status == SolveStatus.CONVERGED
        assert not guarded.health.recovered
        np.testing.assert_allclose(guarded.x, clean.x)

    def test_modeled_overhead_under_five_percent(self, problem):
        from repro.bench import model_machine
        from repro.runtime import JobLayout

        layout = JobLayout.cpu_run(1, machine=model_machine())
        clean = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL)
        ).solve()
        guarded = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL),
            policy=ResilienceConfig(),
        ).solve()
        t_c = clean.timings(layout)
        t_g = guarded.timings(layout)
        total_c = t_c.setup_seconds + t_c.solve_seconds
        total_g = t_g.setup_seconds + t_g.solve_seconds
        assert total_g <= 1.05 * total_c


class TestSessionSurface:
    def test_resilience_true_uses_defaults(self, problem):
        s = SolverSession(problem, policy=ResilienceConfig())
        assert s.policy is not None and s.policy.fault_plan is None

    def test_resilience_false_disables(self, problem):
        assert SolverSession(problem, policy=False).policy is None
        assert SolverSession(problem, policy=None).policy is None

    def test_status_is_string_comparable(self, problem):
        res = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL)
        ).solve()
        assert res.status == "converged"
        assert res.health is None

    def test_verify_and_resilience_compose_fault_free(self, problem):
        res = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL),
            verify=True, policy=ResilienceConfig(),
        ).solve()
        assert res.verification is not None
        assert res.health is not None
        assert res.status == SolveStatus.CONVERGED


class TestSequenceProtection:
    """The policy guards resolve()/solve_sequence() like solve(): the
    engine lives as long as the operator it was built with."""

    def _session(self, problem, at_apply):
        plan = FaultPlan.single("precond_nan", rank=1, seed=11, at_apply=at_apply)
        return SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL),
            policy=ResilienceConfig(fault_plan=plan),
        )

    def test_fault_on_the_second_solve_is_detected_and_recovered(self, problem):
        clean = SolverSession(
            problem, partition=(2, 2, 2), krylov=KrylovConfig(rtol=RTOL)
        ).solve()
        # one apply per iteration: land the NaN two applies into solve #2
        session = self._session(problem, at_apply=clean.iterations + 2)
        rng = np.random.default_rng(3)
        b2 = problem.b + 0.1 * rng.standard_normal(problem.b.size)

        first = session.solve()
        assert first.status == SolveStatus.CONVERGED
        assert not first.health.faults and not first.health.recovered
        assert np.array_equal(first.x, clean.x)

        second = session.resolve(b=b2)
        assert second.setup_reused
        assert second.status == SolveStatus.RECOVERED
        assert [f.kind for f in second.health.faults] == ["precond_nan"]
        assert second.health.restarts == 1
        assert any(a.kind == "krylov_restart" for a in second.health.actions)
        assert second.final_relres <= RTOL * 1.01
        # the health log is per solve: a third solve starts clean
        third = session.resolve(b=problem.b)
        assert third.status == SolveStatus.CONVERGED
        assert not third.health.faults and not third.health.recovered

    def test_resolve_returns_the_guarded_operator(self, problem):
        from repro.resilience import GuardedOperator

        session = self._session(problem, at_apply=10**6)
        first = session.solve()
        again = session.resolve(b=problem.b)
        for res in (first, again):
            assert isinstance(res.precond, GuardedOperator)
            assert res.health is not None
        assert again.precond.engine is first.precond.engine
        assert again.precond.inner is first.precond.inner


class TestChaosMatrixSmoke:
    def test_laplace_column_clean(self, problem):
        from repro.resilience.chaos import run_matrix, summary

        doc = run_matrix(problem="laplace", seed=7)
        assert all(c["ok"] for c in doc["cells"]), "\n".join(summary(doc))
        assert doc["violations"] == []
