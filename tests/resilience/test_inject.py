"""Unit tests of the seeded fault plans."""

import numpy as np
import pytest

from repro.ft import FaultTolerantComm
from repro.resilience.inject import (
    FAULT_KINDS,
    RANK_FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.sparse import CsrMatrix


def _spd(n=5):
    d = np.diag(np.arange(2.0, 2.0 + n)) + 0.1 * np.ones((n, n))
    return CsrMatrix.from_dense(d)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor_strike")

    def test_default_persistence(self):
        assert FaultSpec(kind="halo_corrupt").persistent
        assert FaultSpec(kind="pivot_breakdown").persistent
        assert FaultSpec(kind="fastilu_divergence").persistent
        assert not FaultSpec(kind="precond_nan").persistent
        assert not FaultSpec(kind="precision_overflow").persistent

    def test_repeat_overrides_default(self):
        assert FaultSpec(kind="precond_nan", repeat=True).persistent
        assert not FaultSpec(kind="halo_corrupt", repeat=False).persistent

    def test_kind_constants_disjoint(self):
        assert not set(FAULT_KINDS) & set(RANK_FAULT_KINDS)
        assert not set(FAULT_KINDS + RANK_FAULT_KINDS) & set(SERVICE_FAULT_KINDS)


class TestDeterminism:
    def test_same_seed_same_nan_positions(self):
        y = np.arange(20.0)
        plans = [
            FaultPlan.single("precond_nan", seed=9, magnitude=4.0)
            for _ in range(2)
        ]
        outs = [p.output_fault(2, y) for p in plans]
        np.testing.assert_array_equal(
            np.isnan(outs[0]), np.isnan(outs[1])
        )
        assert int(np.isnan(outs[0]).sum()) >= 1

    def test_reset_restores_determinism(self):
        plan = FaultPlan.single("precond_nan", seed=9, magnitude=4.0)
        y = np.arange(20.0)
        first = plan.output_fault(2, y)
        again = plan.reset().output_fault(2, y)
        np.testing.assert_array_equal(np.isnan(first), np.isnan(again))


class TestSetupFaults:
    def test_corrupt_matrix_flips_one_diagonal_sign(self):
        a = _spd()
        plan = FaultPlan.single("pivot_breakdown", rank=2)
        b = plan.corrupt_matrix(2, a)
        da, db = a.diagonal(), b.diagonal()
        flipped = np.flatnonzero(da != db)
        assert flipped.size == 1
        j = int(flipped[0])
        assert db[j] == -da[j]
        # smallest-magnitude diagonal entry is the target
        assert j == int(np.argmin(np.abs(da)))
        assert len(plan.fired) == 1 and plan.fired[0].kind == "pivot_breakdown"

    def test_corrupt_matrix_ignores_other_ranks(self):
        a = _spd()
        plan = FaultPlan.single("pivot_breakdown", rank=2)
        b = plan.corrupt_matrix(1, a)
        assert b is a and not plan.fired

    def test_fastilu_perturb_amplifies(self):
        plan = FaultPlan.single("fastilu_divergence", rank=0, magnitude=100.0)
        l, u = np.ones(3), np.ones(3)
        l2, u2 = plan.fastilu_perturb(0, 0, l, u)
        np.testing.assert_allclose(l2, 100.0 * l)
        np.testing.assert_allclose(u2, 100.0 * u)


class TestApplyFaults:
    def test_halo_corrupt_targets_halo_entries_only(self):
        plan = FaultPlan.single("halo_corrupt", rank=0, at_apply=2)
        v = np.ones(10)
        mask = np.zeros(10, dtype=bool)
        mask[6:] = True
        out = plan.restrict_fault(0, 2, v, mask)
        bad = np.flatnonzero(np.isnan(out))
        assert bad.size >= 1 and np.all(bad >= 6)

    def test_halo_corrupt_waits_for_at_apply(self):
        plan = FaultPlan.single("halo_corrupt", rank=0, at_apply=3)
        v = np.ones(10)
        mask = np.ones(10, dtype=bool)
        assert np.all(np.isfinite(plan.restrict_fault(0, 2, v, mask)))
        assert np.isnan(plan.restrict_fault(0, 3, v, mask)).any()

    def test_precond_nan_is_one_shot(self):
        plan = FaultPlan.single("precond_nan", at_apply=2)
        y = np.ones(8)
        assert np.isnan(plan.output_fault(2, y)).any()
        assert np.all(np.isfinite(plan.output_fault(2, y)))

    def test_input_scale_fires_once_at_apply(self):
        plan = FaultPlan.single("precision_overflow", at_apply=2)
        assert plan.input_scale(0) == 1.0
        assert plan.input_scale(2) > 1e38
        assert plan.input_scale(2) == 1.0  # spent


def _loss(rank, **kw):
    return FaultPlan.single("rank_loss", rank, phase="apply", **kw)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: FaultSpec("pivot_breakdown", rank=-1), "rank must be >= 0"),
        (lambda: FaultSpec("rank_loss", phase="apply", occurrence=-3),
         "occurrence must be >= 0"),
        (lambda: FaultSpec("precond_nan", at_apply=-1), "at_apply must be >= 0"),
        (lambda: FaultSpec("rank_loss", phase="krylov"), "valid phases"),
        (lambda: FaultSpec("slow_rank", magnitude=0.5), "factor must be >= 1"),
        (lambda: FaultSpec("slow_rank", magnitude=2.0, start=-1.0),
         "start must be >= 0"),
        (lambda: FaultSpec("slow_rank", magnitude=2.0, duration=0.0),
         "duration must be positive"),
        (lambda: FaultTolerantComm(4, _loss(9)),
         r"rank 9 dies at apply op 0: .*communicator of size 4"),
    ],
    ids=["negative-rank", "negative-occurrence", "negative-at-apply",
         "unknown-phase", "factor-below-one", "negative-start",
         "empty-window", "rank-outside-comm"],
)
def test_specs_that_could_never_fire_are_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()


class TestRankFaults:
    def test_slow_rank_describes_itself_as_the_elastic_bench_records(self):
        plan = FaultPlan.single(
            "slow_rank", rank=1, magnitude=8.0,
            start=0.009956019, duration=0.14934028,
        )
        assert plan.describe() == "rank 1 x8 for 0.14934s from t=0.00995602"

    def test_rank_faults_leave_the_other_hooks_alone(self):
        plan = FaultPlan(
            [
                FaultSpec("rank_loss", rank=1, phase="apply"),
                FaultSpec("slow_rank", rank=1, magnitude=4.0),
            ]
        )
        y = np.ones(4)
        assert plan.output_fault(2, y) is y
        assert plan.input_scale(2) == 1.0
        assert plan.due("apply", 0) == [1]
        assert not plan.fired
