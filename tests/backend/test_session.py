"""`SolverSession(backend=...)` selection and bit-identity."""

import numpy as np
import pytest

from repro.api import SolverSession
from repro.backend import NumpyBackend


@pytest.fixture(scope="module")
def problem():
    from repro.fem import laplace_3d

    return laplace_3d(6)


class TestSessionBackend:
    def test_invalid_backend_name_raises_at_construction(self, problem):
        with pytest.raises(ValueError, match="valid values"):
            SolverSession(problem, partition=(2, 1, 1), backend="cupy")

    def test_torch_unavailable_raises_at_construction(self, problem):
        with pytest.raises(ValueError, match="unavailable"):
            SolverSession(problem, partition=(2, 1, 1), backend="torch")

    def test_numpy_backend_is_bit_identical_to_default(self, problem):
        default = SolverSession(problem, partition=(2, 1, 1)).solve()
        routed = SolverSession(
            problem, partition=(2, 1, 1), backend="numpy"
        ).solve()
        assert np.array_equal(default.x, routed.x)
        assert default.iterations == routed.iterations

    def test_backend_instance_accepted(self, problem):
        res = SolverSession(
            problem, partition=(2, 1, 1), backend=NumpyBackend()
        ).solve()
        assert res.converged
        assert isinstance(res.x, np.ndarray)

    def test_resolve_returns_host_numpy(self, problem):
        session = SolverSession(problem, partition=(2, 1, 1), backend="numpy")
        first = session.solve()
        again = session.resolve()
        assert isinstance(again.x, np.ndarray)
        assert np.array_equal(first.x, again.x)
