"""Every preconditioner wrapper rides the one delegating base class."""

import numpy as np
import pytest

from repro.dd import Decomposition, GDSWPreconditioner, HalfPrecisionOperator
from repro.dd.wrapper import OperatorWrapper, unwrap
from repro.elastic import BoundedStalenessSchwarz
from repro.fem import laplace_3d
from repro.ft import FaultTolerantComm, FtOperator
from repro.resilience import GuardedOperator, ResilienceConfig
from repro.serve.guard import OneLevelOperator

COST_MODEL = (
    "rank_apply_profile", "rank_setup_profile", "halo_doubles", "dec", "n_coarse"
)


@pytest.fixture(scope="module")
def gdsw():
    p = laplace_3d(5, 5, 5)
    dec = Decomposition.from_box_partition(p, 2, 2, 1)
    return GDSWPreconditioner(dec, np.ones((p.a.n_rows, 1)), dim=3)


def _wrappers(gdsw):
    engine = ResilienceConfig().protection()
    comm = FaultTolerantComm(gdsw.dec.n_subdomains)
    return {
        "half": HalfPrecisionOperator(gdsw),
        "one_level": OneLevelOperator(gdsw),
        "guarded": GuardedOperator(gdsw, engine),
        "ft": FtOperator(gdsw, comm),
        "stale": BoundedStalenessSchwarz(gdsw, [1]),
        # every nesting the stack builds today
        "guarded(half)": GuardedOperator(HalfPrecisionOperator(gdsw), engine),
        "ft(half)": FtOperator(HalfPrecisionOperator(gdsw), comm),
        "half(one_level)": HalfPrecisionOperator(OneLevelOperator(gdsw)),
        "stale(half)": BoundedStalenessSchwarz(HalfPrecisionOperator(gdsw), []),
    }


def test_cost_model_names_live_in_the_base_class_only():
    for name in COST_MODEL:
        assert name in vars(OperatorWrapper)
    # a wrapper restates a name only where it changes the answer
    restated = {
        cls.__name__: sorted(set(COST_MODEL) & set(vars(cls)))
        for cls in (
            HalfPrecisionOperator, OneLevelOperator, GuardedOperator,
            FtOperator, BoundedStalenessSchwarz,
        )
    }
    assert restated == {
        "HalfPrecisionOperator": [
            "halo_doubles", "rank_apply_profile", "rank_setup_profile"
        ],
        "OneLevelOperator": ["halo_doubles", "n_coarse", "rank_apply_profile"],
        "GuardedOperator": ["rank_apply_profile", "rank_setup_profile"],
        "FtOperator": [],
        "BoundedStalenessSchwarz": [],
    }


def test_every_wrapper_satisfies_the_cost_model_protocol(gdsw):
    v = np.linspace(0.0, 1.0, gdsw.dec.a.n_rows)
    for name, op in _wrappers(gdsw).items():
        assert isinstance(op, OperatorWrapper), name
        assert op.dec is gdsw.dec, name
        assert op.n_coarse in (gdsw.n_coarse, 0), name
        for rank in range(gdsw.dec.n_subdomains):
            assert op.rank_apply_profile(rank).total_flops > 0, name
            assert op.rank_setup_profile(rank).total_flops > 0, name
            assert 0 < op.halo_doubles(rank) <= gdsw.halo_doubles(rank), name
        assert op.apply(v).shape == v.shape, name


def test_pass_through_wrappers_answer_exactly_like_the_inner(gdsw):
    ops = _wrappers(gdsw)
    for name in ("ft", "stale"):
        op = ops[name]
        for rank in range(gdsw.dec.n_subdomains):
            assert op.halo_doubles(rank) == gdsw.halo_doubles(rank)
            assert (
                op.rank_apply_profile(rank).total_flops
                == gdsw.rank_apply_profile(rank).total_flops
            )


def test_unwrap_reaches_the_gdsw_through_any_nesting(gdsw):
    assert unwrap(gdsw) is gdsw
    for name, op in _wrappers(gdsw).items():
        assert unwrap(op) is gdsw, name


def test_protection_only_stops_at_the_preconditioner_proper(gdsw):
    ops = _wrappers(gdsw)
    for name in ("guarded(half)", "ft(half)"):
        base = unwrap(ops[name], protection_only=True)
        assert isinstance(base, HalfPrecisionOperator) and base.inner is gdsw
    assert unwrap(ops["guarded"], protection_only=True) is gdsw
    # a precision or degradation wrapper is part of the preconditioner
    assert unwrap(ops["half"], protection_only=True) is ops["half"]
    assert unwrap(ops["stale"], protection_only=True) is ops["stale"]


def test_half_precision_refactor_rounds_the_matrix_once(gdsw):
    from repro.dd.precision import single_precision_matrix

    a = gdsw.dec.a
    seen = []

    class Probe:
        def refactor(self, a32):
            seen.append(a32)

    HalfPrecisionOperator(Probe()).refactor(a)
    (a32,) = seen
    assert np.array_equal(a32.data, single_precision_matrix(a).data)
    assert np.array_equal(a32.data, a.data.astype(np.float32).astype(np.float64))
    assert a32.data is not a.data and np.array_equal(a32.indices, a.indices)
