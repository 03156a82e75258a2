"""``rank_loss`` fault scheduling and ULFM communicator semantics."""

import numpy as np
import pytest

from repro.ft import FaultTolerantComm, RankFailedError
from repro.obs import Tracer, use_tracer
from repro.resilience.inject import FaultPlan, FaultSpec


def _kill(rank, phase, op):
    return FaultPlan.single("rank_loss", rank, phase=phase, occurrence=op)


class TestRankFailurePlan:
    def test_phase_validated(self):
        with pytest.raises(ValueError, match="valid phases"):
            FaultSpec("rank_loss", rank=0, phase="krylov")

    def test_negative_op_rejected(self):
        with pytest.raises(ValueError, match="occurrence"):
            FaultSpec("rank_loss", rank=0, phase="apply", occurrence=-1)

    def test_due_fires_exactly_once(self):
        plan = _kill(2, "apply", 5)
        assert plan.due("apply", 4) == []
        assert plan.due("reduce", 5) == []
        assert plan.due("apply", 5) == [2]
        assert plan.due("apply", 5) == []
        assert not plan.fired  # the communicator records the death

    def test_describe(self):
        assert _kill(1, "reduce", 7).describe() == "rank 1 dies at reduce op 7"
        assert FaultPlan([]).describe() == "(empty)"


class TestUlfmSemantics:
    def test_p2p_between_survivors_keeps_working(self):
        comm = FaultTolerantComm(4)
        comm.kill(3)
        comm.send(0, 1, np.ones(2))
        assert np.array_equal(comm.recv(1, 0), np.ones(2))

    def test_p2p_touching_dead_endpoint_raises(self):
        comm = FaultTolerantComm(4)
        comm.kill(2)
        with pytest.raises(RankFailedError) as ei:
            comm.send(0, 2, np.ones(2))
        err = ei.value
        assert err.dead_ranks == (2,)
        assert "MPI_ERR_PROC_FAILED" in str(err)

    def test_collective_raises_for_any_death(self):
        comm = FaultTolerantComm(4)
        comm.kill(1)
        with pytest.raises(RankFailedError):
            comm.allreduce([np.ones(1)] * 4)
        with pytest.raises(RankFailedError):
            comm.barrier()

    def test_plan_fires_at_phase_op(self):
        comm = FaultTolerantComm(4, _kill(1, "reduce", 1))
        comm.set_phase("reduce")
        comm.allreduce([np.ones(1)] * 4)  # reduce op 0: everyone alive
        with pytest.raises(RankFailedError) as ei:
            comm.allreduce([np.ones(1)] * 4)  # op 1: rank 1 dies here
        assert ei.value.phase == "reduce"
        assert comm.dead_ranks() == [1]

    def test_shrink_mapping_and_respawn(self):
        comm = FaultTolerantComm(4)
        comm.kill(1)
        mapping = comm.shrink()
        assert mapping == [0, -1, 1, 2]
        assert comm.size == 3 and comm.n_alive() == 3
        comm.kill(0)
        assert comm.respawn() == [0]
        assert comm.size == 3 and comm.n_alive() == 3
        assert comm.ft_recoveries == 2

    def test_counters_survive_repair_epochs(self):
        comm = FaultTolerantComm(2)
        comm.send(0, 1, np.ones(3))
        comm.recv(1, 0)
        comm.kill(0)
        comm.respawn()
        comm.send(0, 1, np.ones(3))
        comm.recv(1, 0)
        assert comm.total_counter("sends") == 2
        assert comm.total_counter("recvs") == 2

    def test_base_ops_masked_from_ambient_tracer(self):
        # FT traffic must not perturb the session tracer's counters:
        # the fault-free bit-identity regression depends on it
        tracer = Tracer()
        with use_tracer(tracer):
            comm = FaultTolerantComm(4)
            comm.allreduce([np.ones(5)] * 4)
            comm.send(0, 1, np.ones(3))
            comm.recv(1, 0)
            comm.barrier()
        assert tracer.reduces == 0
        assert tracer.total("messages") == 0
        assert tracer.total("barriers") == 0

    def test_kill_counts_ft_failures_on_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            comm = FaultTolerantComm(4)
            comm.kill(2)
        assert comm.ft_failures == 1
        assert tracer.total("ft_failures") == 1.0
        assert len(comm.failures) == 1
        assert comm.failures[0].kind == "rank_loss"

    def test_phase_validated(self):
        comm = FaultTolerantComm(2)
        with pytest.raises(ValueError, match="valid phases"):
            comm.set_phase("krylov")
