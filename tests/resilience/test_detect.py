"""Unit tests of the breakdown taxonomy and the cheap detectors."""

import numpy as np
import pytest

from repro.resilience.detect import (
    BREAKDOWN_EXCEPTIONS,
    DivergenceError,
    FloatOverflowError,
    KrylovGuard,
    NumericalBreakdown,
    PivotBreakdownError,
    check_pivot,
    nonfinite_count,
    sweep_divergence,
)


class TestExceptionHierarchy:
    def test_pivot_breakdown_is_zero_division(self):
        """Seed-era `except ZeroDivisionError` sites must keep working."""
        err = PivotBreakdownError("boom", index=3, value=0.0, solver="iluk")
        assert isinstance(err, ZeroDivisionError)
        assert isinstance(err, NumericalBreakdown)
        assert err.index == 3 and err.solver == "iluk"

    def test_overflow_is_overflow_error(self):
        err = FloatOverflowError("boom", count=2, max_abs=1e40, where="cast")
        assert isinstance(err, OverflowError)
        assert isinstance(err, NumericalBreakdown)

    def test_breakdown_tuple_catches_all_structured_types(self):
        for err in (
            PivotBreakdownError("p"),
            DivergenceError("d"),
            FloatOverflowError("o"),
            np.linalg.LinAlgError("l"),
            ZeroDivisionError("z"),
        ):
            with pytest.raises(BREAKDOWN_EXCEPTIONS):
                raise err


class TestCheckPivot:
    def test_healthy_pivot_passes(self):
        check_pivot(1.0, scale=1.0, index=0, solver="t")

    def test_exact_zero_always_raises(self):
        with pytest.raises(PivotBreakdownError):
            check_pivot(0.0, scale=1.0, index=0, solver="t", rtol=0.0)

    def test_relative_near_zero_raises(self):
        with pytest.raises(PivotBreakdownError) as ei:
            check_pivot(1e-16, scale=1.0, index=5, solver="t", rtol=1e-14)
        assert ei.value.index == 5

    def test_near_zero_passes_with_rtol_zero(self):
        """rtol=0 is the seed behavior: only exact zeros are rejected."""
        check_pivot(1e-300, scale=1.0, index=0, solver="t", rtol=0.0)

    def test_nonfinite_pivot_raises(self):
        with pytest.raises(PivotBreakdownError):
            check_pivot(float("nan"), scale=1.0, index=0, solver="t")


class TestSweepDivergence:
    def test_contracting_sweeps_pass(self):
        assert not sweep_divergence([1.0, 0.5, 0.25])

    def test_growing_sweeps_fire(self):
        assert sweep_divergence([1.0, 50.0, 2500.0], growth_tol=10.0)

    def test_nonfinite_fires(self):
        assert sweep_divergence([1.0, float("inf")])

    def test_empty_is_healthy(self):
        assert not sweep_divergence([])

    def test_nonfinite_count(self):
        v = np.array([1.0, np.nan, np.inf, 2.0])
        assert nonfinite_count(v) == 2


class TestKrylovGuard:
    def test_nonfinite_estimate_fires(self):
        g = KrylovGuard()
        assert g.on_residual(1, 0.5) is None
        assert g.on_residual(2, float("nan")) == "nonfinite"

    def test_stagnation_fires_after_window(self):
        g = KrylovGuard(stall_window=5)
        assert g.on_residual(0, 1.0) is None
        reason = None
        for it in range(1, 10):
            reason = g.on_residual(it, 1.0)  # never improves
            if reason:
                break
        assert reason == "stagnation"
        assert it == 5

    def test_steady_improvement_never_fires(self):
        g = KrylovGuard(stall_window=5)
        est = 1.0
        for it in range(50):
            est *= 0.9
            assert g.on_residual(it, est) is None

    def test_records_history_and_the_last_iteration(self):
        g = KrylovGuard()
        for it, est in ((1, 1.0), (2, 0.5), (3, 0.25)):
            g.on_residual(it, est)
        assert g.history == [1.0, 0.5, 0.25] and g.iters == 3

    def test_zero_window_is_a_pure_recorder(self):
        g = KrylovGuard(stall_window=0)
        assert all(g.on_residual(it, 1.0) is None for it in range(500))
        assert g.on_residual(500, float("inf")) == "nonfinite"

    def test_extra_predicate_is_asked_only_while_not_improving(self):
        asked = []

        def extra():
            asked.append(True)
            return "over_budget" if len(asked) > 1 else None

        g = KrylovGuard(stall_window=50, extra=extra)
        assert g.on_residual(0, 1.0) is None and not asked  # improving
        assert g.on_residual(1, 1.0) is None and len(asked) == 1
        assert g.on_residual(2, 1.0) == "over_budget"

    def test_one_watchdog_behind_every_subsystem(self):
        """The staleness guard and the rank-loss recorder reuse this
        class rather than restating it."""
        from repro.elastic import StalenessGuard
        from repro.ft import FaultToleranceConfig

        assert issubclass(StalenessGuard, KrylovGuard)
        assert "on_residual" not in vars(StalenessGuard)
        recorder = FaultToleranceConfig().protection().watchdog()
        assert type(recorder) is KrylovGuard and recorder.stall_window == 0
