"""SimComm deadlock diagnostics."""

import numpy as np
import pytest

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
