"""``slow_rank`` fault windows and the SimComm delayed tally."""

import math

import numpy as np
import pytest

from repro.obs import Tracer, use_tracer
from repro.resilience.inject import FaultPlan, FaultSpec
from repro.runtime.simmpi import SimComm


def _slow(rank, factor, **kw):
    return FaultSpec("slow_rank", rank=rank, magnitude=factor, **kw)


class TestSlowRank:
    def test_validation(self):
        with pytest.raises(ValueError, match="rank"):
            _slow(-1, 2.0)
        with pytest.raises(ValueError, match="factor"):
            _slow(0, 0.5)
        with pytest.raises(ValueError, match="factor"):
            FaultSpec("slow_rank", rank=0)
        with pytest.raises(ValueError, match="start"):
            _slow(0, 2.0, start=-1.0)
        with pytest.raises(ValueError, match="duration"):
            _slow(0, 2.0, duration=0.0)

    def test_window_half_open(self):
        plan = FaultPlan(_slow(1, 4.0, start=10.0, duration=5.0))
        assert plan.factor_at(1, 9.999) == 1.0
        assert plan.factor_at(1, 10.0) == 4.0
        assert plan.factor_at(1, 14.999) == 4.0
        assert plan.factor_at(1, 15.0) == 1.0

    def test_permanent_by_default(self):
        plan = FaultPlan(_slow(0, 2.0))
        assert plan.factor_at(0, 0.0) == plan.factor_at(0, 1e12) == 2.0


class TestStragglerPlan:
    def test_factor_outside_window_is_one(self):
        plan = FaultPlan.single(
            "slow_rank", 1, magnitude=8.0, start=5.0, duration=2.0
        )
        assert plan.factor_at(1, 0.0) == 1.0
        assert plan.factor_at(1, 6.0) == 8.0
        assert plan.factor_at(1, 7.0) == 1.0
        assert plan.factor_at(0, 6.0) == 1.0

    def test_overlapping_windows_take_worst(self):
        plan = FaultPlan(
            [
                _slow(2, 2.0, start=0.0, duration=10.0),
                _slow(2, 6.0, start=5.0, duration=2.0),
            ]
        )
        assert plan.factor_at(2, 1.0) == 2.0
        assert plan.factor_at(2, 6.0) == 6.0
        assert plan.slow_ranks == [2]

    def test_describe(self):
        plan = FaultPlan(_slow(1, 8.0, start=2.0, duration=3.0))
        assert plan.describe() == "rank 1 x8 for 3s from t=2"
        forever = FaultPlan(_slow(0, 2.0))
        assert forever.describe() == "rank 0 x2 for ever from t=0"
        assert math.isinf(forever.faults[0].duration)


class TestSimCommDelayed:
    def test_slow_channel_traffic_tallied(self):
        plan = FaultPlan.single("slow_rank", 1, magnitude=8.0)
        tracer = Tracer()
        with use_tracer(tracer):
            comm = SimComm(size=4, fault_plan=plan)
            comm.send(0, 1, np.ones(3))  # touches slow rank 1
            comm.send(1, 2, np.ones(3))  # touches slow rank 1
            comm.send(2, 3, np.ones(3))  # healthy channel
            comm.recv(1, 0)
            comm.recv(2, 1)
            comm.recv(3, 2)
        assert comm.delayed == 2
        assert tracer.total("delayed_messages") == 2.0
        assert not plan.fired  # a slowdown is priced, not recorded

    def test_no_plan_no_delays(self):
        comm = SimComm(size=2)
        comm.send(0, 1, np.ones(2))
        comm.recv(1, 0)
        assert comm.delayed == 0
