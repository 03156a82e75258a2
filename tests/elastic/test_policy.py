"""ScalingPolicy decisions: triggers, priorities, billing, cooldown."""

import numpy as np
import pytest

from repro.elastic import ElasticConfig, ScalingPolicy
from repro.elastic.policy import MIN_RANKS, STRAGGLER_FACTOR


def _policy(**kw):
    return ScalingPolicy(ElasticConfig(**kw))


BASE = np.array([1.0, 1.0, 1.0, 1.0])


class TestConfigValidation:
    def test_bounds(self):
        ElasticConfig(cooldown_seconds=0.0)
        with pytest.raises(ValueError, match="cooldown_seconds"):
            ElasticConfig(cooldown_seconds=-1.0)
        # the thresholds are constants: their old keywords are gone
        for name in ("min_ranks", "max_ranks", "straggler_factor",
                     "backlog_batches", "idle_utilization", "bill_relief",
                     "max_staleness"):
            with pytest.raises(TypeError, match=name):
                ElasticConfig(**{name: 1})


class TestScaleAround:
    def test_straggler_on_critical_path_triggers(self):
        pol = _policy()
        assert 8.0 >= STRAGGLER_FACTOR
        factors = np.array([1.0, 8.0, 1.0, 1.0])
        d = pol.decide(0.0, BASE * factors, factors, 2, 4.0, 0.1)
        assert d is not None and d.kind == "scale_around"
        assert d.rank == 1
        assert d.projected_relief_seconds > 0

    def test_mild_slowdown_below_threshold_ignored(self):
        pol = _policy()
        assert 1.4 < STRAGGLER_FACTOR
        factors = np.array([1.0, 1.4, 1.0, 1.0])
        d = pol.decide(0.0, BASE * factors, factors, 2, 4.0, 0.1)
        assert d is None

    def test_relief_billed_against_repartition_cost(self):
        pol = _policy()
        factors = np.array([1.0, 8.0, 1.0, 1.0])
        cheap = pol.decide(0.0, BASE * factors, factors, 0, 4.0, 0.5)
        assert cheap is not None
        expensive = pol.decide(0.0, BASE * factors, factors, 0, 4.0, 1e9)
        assert expensive is None

    def test_straggler_beats_backlog(self):
        # a straggler causes backlog; the cause is treated first
        pol = _policy()
        factors = np.array([1.0, 8.0, 1.0, 1.0])
        d = pol.decide(0.0, BASE * factors, factors, 8, 4.0, 0.0)
        assert d is not None and d.kind == "scale_around"

    def test_min_ranks_respected(self):
        pol = _policy()
        factors = np.ones(MIN_RANKS)
        factors[-1] = 8.0
        assert pol.decide(0.0, factors, factors, 2, 4.0, 0.0) is None
        more = np.append(factors, 1.0)
        d = pol.decide(0.0, more, more, 2, 4.0, 0.0)
        assert d is not None and d.kind == "scale_around"


class TestScaleOut:
    """Scale-out is gone: a backlog without a straggler never splits a rank."""

    def test_short_queue_holds_still(self):
        pol = _policy()
        costs = np.array([1.0, 3.0, 1.0, 1.0])
        for queued in (3, 8):
            assert pol.decide(0.0, costs, None, queued, 4.0, 0.1) is None
            assert pol.decide(0.0, costs, np.ones(4), queued, 4.0, 0.1) is None


class TestScaleIn:
    """Scale-in is gone: an idle rank is never merged away."""

    def test_no_scale_in_under_load_or_straggler(self):
        pol = _policy()
        costs = np.array([1.0, 1.0, 1.0, 0.1])
        for queued in (0, 1):
            assert pol.decide(0.0, costs, None, queued, 4.0, 0.0) is None
        factors = np.array([1.0, 1.2, 1.0, 1.0])
        assert pol.decide(0.0, costs * factors, factors, 0, 4.0, 0.0) is None


class TestCooldown:
    def test_actions_rate_limited(self):
        pol = _policy(cooldown_seconds=10.0)
        factors = np.array([1.0, 8.0, 1.0, 1.0])
        d = pol.decide(0.0, BASE * factors, factors, 2, 4.0, 0.0)
        assert d is not None
        pol.record_action(0.0)
        assert pol.decide(5.0, BASE * factors, factors, 2, 4.0, 0.0) is None
        assert pol.decide(10.0, BASE * factors, factors, 2, 4.0, 0.0) is not None
