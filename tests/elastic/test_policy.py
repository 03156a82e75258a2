"""ScalingPolicy decisions: triggers, priorities, billing, cooldown."""

import numpy as np
import pytest

from repro.elastic import ElasticConfig, ScalingPolicy
from repro.elastic.policy import (
    BACKLOG_BATCHES,
    IDLE_UTILIZATION,
    MAX_RANKS,
    MIN_RANKS,
    STRAGGLER_FACTOR,
)


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


class TestScaleOut:
    def test_backlog_splits_heaviest_rank(self):
        pol = _policy()
        assert BACKLOG_BATCHES == 4
        costs = np.array([1.0, 3.0, 1.0, 1.0])
        d = pol.decide(0.0, costs, None, 5, 4.0, 0.1)
        assert d is not None and d.kind == "scale_out"
        assert d.rank == 1

    def test_short_queue_holds_still(self):
        pol = _policy()
        costs = np.array([1.0, 3.0, 1.0, 1.0])
        assert pol.decide(0.0, costs, None, 3, 4.0, 0.1) is None

    def test_max_ranks_respected(self):
        pol = _policy()
        costs = np.ones(MAX_RANKS)
        costs[1] = 3.0
        assert pol.decide(0.0, costs, None, 8, 4.0, 0.0) is None
        d = pol.decide(0.0, costs[:-1], None, 8, 4.0, 0.0)
        assert d is not None and d.kind == "scale_out"

    def test_straggler_beats_backlog(self):
        # a straggler causes backlog; the cause is treated first
        pol = _policy()
        factors = np.array([1.0, 8.0, 1.0, 1.0])
        d = pol.decide(0.0, BASE * factors, factors, 8, 4.0, 0.0)
        assert d is not None and d.kind == "scale_around"


class TestScaleIn:
    def test_idle_rank_with_empty_queue_merged(self):
        pol = _policy()
        assert 0.1 < IDLE_UTILIZATION
        costs = np.array([1.0, 1.0, 1.0, 0.1])
        d = pol.decide(0.0, costs, None, 0, 4.0, 0.0)
        assert d is not None and d.kind == "scale_in"
        assert d.rank == 3
        assert d.projected_relief_seconds == 0.0

    def test_no_scale_in_under_load_or_straggler(self):
        pol = _policy()
        costs = np.array([1.0, 1.0, 1.0, 0.1])
        assert pol.decide(0.0, costs, None, 1, 4.0, 0.0) is None
        factors = np.array([1.0, 1.2, 1.0, 1.0])
        assert pol.decide(0.0, costs * factors, factors, 0, 4.0, 0.0) is None

    def test_min_ranks_respected(self):
        pol = _policy()
        costs = np.ones(MIN_RANKS)
        costs[-1] = 0.1
        assert pol.decide(0.0, costs, None, 0, 4.0, 0.0) is None
        d = pol.decide(0.0, np.append(costs, 1.0), None, 0, 4.0, 0.0)
        assert d is not None and d.kind == "scale_in"


class TestCooldown:
    def test_actions_rate_limited(self):
        pol = _policy(cooldown_seconds=10.0)
        factors = np.array([1.0, 8.0, 1.0, 1.0])
        d = pol.decide(0.0, BASE * factors, factors, 2, 4.0, 0.0)
        assert d is not None
        pol.record_action(0.0)
        assert pol.decide(5.0, BASE * factors, factors, 2, 4.0, 0.0) is None
        assert pol.decide(10.0, BASE * factors, factors, 2, 4.0, 0.0) is not None
