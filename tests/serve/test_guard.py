"""Guard mechanics: jitter, breakers, retry policy, degradation ladder."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fem import laplace_3d
from repro.resilience.inject import seeded_jitter
from repro.resilience.policy import SERVICE_ACTION_KINDS
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.runtime.timings import block_iteration_seconds
from repro.serve.guard import (
    BREAKER_THRESHOLD,
    JITTER,
    MAX_RETRIES,
    PRESSURE_ONE_LEVEL,
    PRESSURE_PRECISION,
    PRESSURE_RTOL,
    RTOL_RELAX,
    CircuitBreaker,
    DegradationLadder,
    GuardConfig,
    OneLevelOperator,
    RetryPolicy,
)


class TestSeededJitter:
    def test_deterministic_and_uniformish(self):
        vals = [seeded_jitter(0, f"r{i}", 1) for i in range(200)]
        again = [seeded_jitter(0, f"r{i}", 1) for i in range(200)]
        assert vals == again
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.3 < float(np.mean(vals)) < 0.7

    def test_varies_with_every_input(self):
        base = seeded_jitter(0, "r1", 1)
        assert seeded_jitter(1, "r1", 1) != base
        assert seeded_jitter(0, "r2", 1) != base
        assert seeded_jitter(0, "r1", 2) != base


class TestGuardConfig:
    def test_defaults_valid(self):
        GuardConfig()

    @pytest.mark.parametrize("kw", [
        # a negative cooldown let an open breaker probe on the next round
        {"breaker_cooldown": -1.0},
        {"backoff_base": -1.0},
        # the thresholds are constants: their old keywords are gone
        {"breaker_threshold": 3},
        {"max_retries": 2},
        {"backoff_factor": 2.0},
        {"jitter": 0.25},
        {"degradation": True},
    ])
    def test_validation(self, kw):
        (name,) = kw
        kept = name in {f.name for f in dataclasses.fields(GuardConfig)}
        with pytest.raises(ValueError if kept else TypeError, match=name):
            GuardConfig(**kw)


def _opened(cooldown=1.0):
    """A breaker opened at t=0 by BREAKER_THRESHOLD failures."""
    br = CircuitBreaker(cooldown=cooldown)
    for _ in range(BREAKER_THRESHOLD):
        br.record_failure(0.0)
    return br


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        assert BREAKER_THRESHOLD == 3
        br = CircuitBreaker(cooldown=1.0)
        assert br.state == "closed"
        br.record_failure(0.0)
        br.record_failure(0.1)
        assert br.state == "closed" and br.allow(0.2)
        br.record_failure(0.2)
        assert br.state == "open"
        assert not br.allow(0.5)  # cooldown not elapsed
        assert br.opened == 1

    def test_success_resets_the_failure_streak(self):
        br = CircuitBreaker(cooldown=1.0)
        for _ in range(BREAKER_THRESHOLD - 1):
            br.record_failure(0.0)
        br.record_success(0.1)
        for _ in range(BREAKER_THRESHOLD - 1):
            br.record_failure(0.2)
        assert br.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        br = _opened()
        assert br.state == "open"
        assert br.allow(1.5)  # past cooldown: one probe admitted
        assert br.state == "half_open"
        assert not br.allow(1.5)  # but only one
        br.record_success(1.6)
        assert br.state == "closed" and br.allow(1.6)

    def test_failed_probe_reopens_with_doubled_cooldown(self):
        br = _opened()
        assert br.allow(1.0)  # probe
        br.record_failure(1.0)  # probe fails: cooldown doubles to 2
        assert not br.allow(2.5)
        assert br.allow(3.0)  # 1.0 + 2.0 elapsed
        br.record_failure(3.0)  # doubles again to 4
        assert not br.allow(6.5)
        assert br.allow(7.0)

    def test_cooldown_doubling_is_capped(self):
        br = _opened()
        t = 0.0
        for _ in range(10):
            t += 100.0
            assert br.allow(t)
            br.record_failure(t)
        assert br._cooldown_now == 16.0  # capped at 16x


class TestRetryPolicy:
    def test_backoff_deterministic_and_growing(self):
        pol = RetryPolicy(GuardConfig(seed=0))
        b1 = pol.backoff_seconds("r1", 1)
        b2 = pol.backoff_seconds("r1", 2)
        b3 = pol.backoff_seconds("r1", 3)
        assert b1 == pol.backoff_seconds("r1", 1)  # same triple, same wait
        assert b1 < b2 < b3  # factor 2 dominates the <=25% jitter

    def test_seed_and_request_change_the_jitter(self):
        a = RetryPolicy(GuardConfig(seed=0)).backoff_seconds("r1", 1)
        b = RetryPolicy(GuardConfig(seed=1)).backoff_seconds("r1", 1)
        c = RetryPolicy(GuardConfig(seed=0)).backoff_seconds("r2", 1)
        assert a != b and a != c

    def test_budget_and_deadline_cap(self):
        assert MAX_RETRIES == 2
        pol = RetryPolicy(GuardConfig(backoff_base=1.0))
        assert 1.0 <= pol.should_retry("r", 1, 0.0, None) < 1.0 + JITTER
        assert 2.0 <= pol.should_retry("r", 2, 0.0, None) < 2.0 * (1 + JITTER)
        assert pol.should_retry("r", 3, 0.0, None) is None  # budget spent
        # backoff lands past the absolute deadline: refused
        assert pol.should_retry("r", 1, 0.0, 0.5) is None
        assert pol.should_retry("r", 1, 0.0, 1.5) is not None


class TestDegradationLadder:
    def _ladder(self):
        return DegradationLadder()

    def test_rungs_are_registered_action_kinds(self):
        for rung in DegradationLadder.RUNGS:
            assert rung in SERVICE_ACTION_KINDS

    def test_pressure_semantics(self):
        lad = self._ladder()
        assert lad.pressure(1.0, None) == 0.0  # no deadline, no SLO
        assert lad.pressure(0.0, 1.0) == 0.0
        assert lad.pressure(2.0, 1.0) == pytest.approx(2.0)
        assert lad.pressure(1.0, 0.0) == float("inf")

    def test_no_pressure_no_degradation(self):
        d = self._ladder().decide(0.5, 1e-7, [1e-4, 1e-4])
        assert not d.degraded and d.rungs == []

    def test_rtol_rung_needs_every_budget_declared(self):
        lad = self._ladder()
        assert PRESSURE_RTOL <= 1.5 < PRESSURE_PRECISION
        d = lad.decide(1.5, 1e-7, [1e-4, None])
        assert "degrade_rtol" not in d.rungs
        d = lad.decide(1.5, 1e-7, [1e-4, 1e-3])
        assert d.rungs == ["degrade_rtol"]
        # capped by the tightest budget present
        assert d.effective_rtol == pytest.approx(min(1e-7 * RTOL_RELAX, 1e-4))

    def test_rungs_accumulate_with_pressure(self):
        assert PRESSURE_PRECISION <= 2.5 < PRESSURE_ONE_LEVEL <= 5.0
        lad = self._ladder()
        d = lad.decide(2.5, 1e-7, [1e-4])
        assert d.rungs == ["degrade_rtol", "degrade_precision"]
        assert d.precision == "single" and d.levels == 2
        d = lad.decide(5.0, 1e-7, [1e-4])
        assert d.rungs == [
            "degrade_rtol", "degrade_precision", "degrade_one_level"
        ]
        assert d.levels == 1

    def test_decision_roundtrips_to_dict(self):
        d = self._ladder().decide(5.0, 1e-7, [1e-4])
        rec = d.to_dict()
        assert rec["rungs"] == list(d.rungs)
        assert rec["precision"] == "single" and rec["levels"] == 1
        assert rec["pressure"] == pytest.approx(5.0)


class TestDegradedOperatorPricing:
    """The ladder's rungs must be *priced*, not asserted: each degraded
    operator plugs into the same cost model and comes out cheaper per
    iteration than the full two-level double-precision operator."""

    @pytest.fixture(scope="class")
    def built(self):
        from repro.api import SolverSession
        from repro.bench.harness import model_machine
        from repro.runtime.layout import JobLayout

        problem = laplace_3d(4, 4, 4)
        with use_artifact_cache(ArtifactCache()):
            session = SolverSession(problem, partition=(2, 2, 1))
            precond = session.build_preconditioner()
        layout = JobLayout.gpu_run(1, 2, machine=model_machine())
        return problem, precond, layout

    def test_one_level_wrapper_applies_and_prices_cheaper(self, built):
        problem, precond, layout = built
        one = OneLevelOperator(precond)
        v = np.ones(problem.a.n_rows)
        # the wrapper applies exactly the one-level half
        np.testing.assert_allclose(one.apply(v), precond.one_level.apply(v))
        assert one.n_coarse == 0 and one.dec is precond.dec
        full = block_iteration_seconds(precond, layout, 4)
        degraded = block_iteration_seconds(one, layout, 4)
        assert degraded < full

    def test_wrap_operator_composition_and_cost_order(self, built):
        _, precond, layout = built
        lad = DegradationLadder()
        full = block_iteration_seconds(precond, layout, 4)
        costs = {}
        for pressure in (2.5, 5.0):
            d = lad.decide(pressure, 1e-7, [1e-4])
            op = DegradationLadder.wrap_operator(precond, d)
            costs[pressure] = block_iteration_seconds(op, layout, 4)
        # each additional rung strictly cheapens the iteration
        assert costs[5.0] < costs[2.5] < full

    def test_wrap_operator_identity_when_not_degraded(self, built):
        _, precond, _ = built
        lad = DegradationLadder()
        d = lad.decide(0.1, 1e-7, [1e-4])
        assert DegradationLadder.wrap_operator(precond, d) is precond
