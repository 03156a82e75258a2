"""SimComm fault injection and deadlock diagnostics."""

import numpy as np
import pytest

from repro.resilience.inject import FaultPlan, FaultSpec
from repro.runtime.simmpi import SimComm


class TestDeadlockDiagnostics:
    def test_empty_channel_error_names_the_channel(self):
        comm = SimComm(size=4)
        with pytest.raises(RuntimeError) as ei:
            comm.recv(3, 1, tag=9)
        msg = str(ei.value)
        assert "deadlock" in msg
        assert "src=1" in msg and "dst=3" in msg and "tag=9" in msg

    def test_error_summarizes_pending_channels_and_ops(self):
        comm = SimComm(size=4)
        comm.send(0, 1, np.ones(3), tag=2)
        comm.send(0, 1, np.ones(3), tag=2)
        comm.send(2, 3, np.ones(5), tag=0)
        with pytest.raises(RuntimeError) as ei:
            comm.recv(2, 0)
        msg = str(ei.value)
        assert "(src=0, dst=1, tag=2): 2 msgs" in msg
        assert "(src=2, dst=3, tag=0): 1 msg" in msg
        assert "3 sends" in msg and "0 recvs" in msg
        assert "0 allreduces" in msg

    def test_no_pending_channels_stated_plainly(self):
        comm = SimComm(size=2)
        with pytest.raises(RuntimeError, match="no channels have pending"):
            comm.recv(0, 1)


class TestCommFaults:
    def test_msg_drop_eats_the_matched_send(self):
        plan = FaultPlan(
            [FaultSpec(kind="msg_drop", src=0, rank=1, tag=0, occurrence=1)]
        )
        comm = SimComm(size=2, fault_plan=plan)
        comm.send(0, 1, np.arange(3.0))  # occurrence 0: delivered
        comm.send(0, 1, np.arange(3.0))  # occurrence 1: dropped
        assert comm.dropped == 1
        assert comm.sends == 2  # the op was issued either way
        np.testing.assert_array_equal(comm.recv(1, 0), np.arange(3.0))
        with pytest.raises(RuntimeError, match="deadlock"):
            comm.recv(1, 0)
        assert plan.fired and plan.fired[0].kind == "msg_drop"

    def test_msg_corrupt_nans_the_payload(self):
        plan = FaultPlan(
            [FaultSpec(kind="msg_corrupt", src=1, rank=0, tag=3, occurrence=0)],
            seed=5,
        )
        comm = SimComm(size=2, fault_plan=plan)
        comm.send(1, 0, np.ones(8), tag=3)
        out = comm.recv(0, 1, tag=3)
        assert np.isnan(out).any() and np.isfinite(out).any()
        assert plan.fired and plan.fired[0].kind == "msg_corrupt"

    def test_unmatched_channels_untouched(self):
        plan = FaultPlan(
            [FaultSpec(kind="msg_drop", src=0, rank=1, tag=5, occurrence=0)]
        )
        comm = SimComm(size=3, fault_plan=plan)
        comm.send(0, 2, np.ones(2), tag=5)  # wrong dst
        comm.send(0, 1, np.ones(2), tag=4)  # wrong tag
        assert comm.dropped == 0
        np.testing.assert_array_equal(comm.recv(2, 0, tag=5), np.ones(2))
        np.testing.assert_array_equal(comm.recv(1, 0, tag=4), np.ones(2))

    def test_drop_does_not_shift_a_later_corrupt(self):
        # both kinds count occurrences on one per-channel counter, so
        # the corrupt aimed at message 1 hits message 1 even though
        # message 0 was dropped
        plan = FaultPlan(
            [
                FaultSpec(kind="msg_drop", src=0, rank=1, occurrence=0),
                FaultSpec(kind="msg_corrupt", src=0, rank=1, occurrence=1),
            ],
            seed=3,
        )
        comm = SimComm(size=2, fault_plan=plan)
        for _ in range(3):
            comm.send(0, 1, np.ones(6))
        assert comm.dropped == 1
        assert np.isnan(comm.recv(1, 0)).any()  # message 1
        assert np.all(np.isfinite(comm.recv(1, 0)))  # message 2
        assert [e.kind for e in plan.fired] == ["msg_drop", "msg_corrupt"]
        assert "message 1 " in plan.fired[1].detail

    def test_no_plan_is_the_seed_path(self):
        comm = SimComm(size=2)
        comm.send(0, 1, np.ones(4))
        np.testing.assert_array_equal(comm.recv(1, 0), np.ones(4))
        assert comm.dropped == 0
