"""Unit tests of the per-subdomain escalation ladder."""

import numpy as np
import pytest

from repro.dd.local_solvers import LocalSolverSpec
from repro.resilience.detect import DivergenceError, PivotBreakdownError
from repro.resilience.policy import (
    ACTION_KINDS,
    RecoveryPolicy,
)


class TestFastIluLadder:
    def test_damping_boosts_then_fallback(self):
        pol = RecoveryPolicy(max_damping_boosts=2, min_damping=0.15)
        st = pol.initial_state(1, LocalSolverSpec(kind="fastilu"))
        err = DivergenceError("diverged")

        a1 = pol.escalate(st, err)
        assert a1.kind == "boost_damping"
        assert st.spec.factor_damping == pytest.approx(0.35)
        a2 = pol.escalate(st, err)
        assert a2.kind == "boost_damping"
        assert st.spec.factor_damping == pytest.approx(0.175)
        a3 = pol.escalate(st, err)
        assert a3.kind == "fallback_iluk"
        assert st.spec.kind == "iluk"
        assert st.escalated and not st.exhausted

    def test_solve_damping_never_increases(self):
        pol = RecoveryPolicy()
        spec = LocalSolverSpec(kind="fastilu", solve_damping=0.8)
        st = pol.initial_state(0, spec)
        pol.escalate(st, DivergenceError("d"))
        assert st.spec.solve_damping <= 0.8


class TestPivotLadder:
    def test_shift_grows_then_falls_back(self):
        pol = RecoveryPolicy(shift0=1e-8, shift_growth=100.0, max_shift=1e-4)
        st = pol.initial_state(0, LocalSolverSpec(kind="tacho"))
        err = PivotBreakdownError("p", solver="tacho")

        shifts = []
        for _ in range(3):
            a = pol.escalate(st, err)
            assert a.kind == "diagonal_shift"
            shifts.append(st.shift)
        assert shifts == pytest.approx([1e-8, 1e-6, 1e-4])
        a = pol.escalate(st, err)
        assert a.kind == "fallback_superlu"
        assert st.spec.kind == "superlu"
        # the shift is kept: the matrix that needed it still needs it
        assert st.shift == pytest.approx(1e-4)

    def test_linalgerror_also_shifts(self):
        pol = RecoveryPolicy()
        st = pol.initial_state(0, LocalSolverSpec(kind="tacho"))
        a = pol.escalate(st, np.linalg.LinAlgError("not positive definite"))
        assert a.kind == "diagonal_shift"


class TestExhaustion:
    def test_superlu_pivot_exhausts_after_shift_cap(self):
        pol = RecoveryPolicy(shift0=1.0, shift_growth=10.0, max_shift=1.0)
        st = pol.initial_state(0, LocalSolverSpec(kind="superlu"))
        err = PivotBreakdownError("p", solver="superlu")
        assert pol.escalate(st, err).kind == "diagonal_shift"
        assert pol.escalate(st, err) is None
        assert st.exhausted

    def test_all_action_kinds_named(self):
        pol = RecoveryPolicy()
        st = pol.initial_state(0, LocalSolverSpec(kind="fastilu"))
        a = pol.escalate(st, DivergenceError("d"))
        assert a.kind in ACTION_KINDS


class TestFullChain:
    def test_fastilu_to_superlu_chain(self):
        """A subdomain that keeps breaking walks fastilu -> iluk ->
        tacho -> superlu and only then exhausts."""
        pol = RecoveryPolicy(
            max_damping_boosts=0, shift0=1.0, shift_growth=10.0, max_shift=1.0
        )
        st = pol.initial_state(0, LocalSolverSpec(kind="fastilu"))
        kinds = []
        # divergence pushes off fastilu; pivot errors then walk the chain
        kinds.append(pol.escalate(st, DivergenceError("d")).kind)
        err = PivotBreakdownError("p")
        while True:
            a = pol.escalate(st, err)
            if a is None:
                break
            kinds.append(a.kind)
        assert kinds[0] == "fallback_iluk"
        assert "fallback_exact" in kinds
        assert "fallback_superlu" in kinds
        assert st.exhausted and st.spec.kind == "superlu"
