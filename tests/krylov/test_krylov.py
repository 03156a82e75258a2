"""Krylov solvers: GMRES variants, CG, reduction accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.krylov import ReduceCounter, cg, gmres
from repro.sparse import CsrMatrix
from tests.conftest import random_spd


class TestReduceCounter:
    def test_counts_and_payload(self):
        red = ReduceCounter()
        red.allreduce(np.ones(3))
        red.allreduce(2.0)
        assert red.count == 2
        assert red.doubles == 4
        red.reset()
        assert red.count == 0

    def test_passthrough(self):
        red = ReduceCounter()
        np.testing.assert_allclose(red.allreduce(np.array([1.0, 2.0])), [1.0, 2.0])


class TestGmres:
    @pytest.mark.parametrize("variant", ["mgs", "cgs", "single_reduce"])
    def test_converges_spd(self, variant, rng):
        a = random_spd(40, seed=1)
        b = rng.standard_normal(40)
        res = gmres(a, b, rtol=1e-8, restart=20, variant=variant)
        assert res.converged
        assert np.linalg.norm(a.matvec(res.x) - b) <= 1.1e-8 * np.linalg.norm(b)

    def test_converges_nonsymmetric(self, rng):
        n = 30
        d = rng.standard_normal((n, n)) * 0.1 + np.eye(n) * 3
        a = CsrMatrix.from_dense(d)
        b = rng.standard_normal(n)
        res = gmres(a, b, rtol=1e-9, restart=15)
        assert res.converged
        assert np.linalg.norm(d @ res.x - b) <= 1e-8 * np.linalg.norm(b)

    def test_variants_agree(self, rng):
        a = random_spd(30, seed=2)
        b = rng.standard_normal(30)
        xs = [
            gmres(a, b, rtol=1e-10, restart=30, variant=v).x
            for v in ("mgs", "cgs", "single_reduce")
        ]
        np.testing.assert_allclose(xs[0], xs[1], atol=1e-7)
        np.testing.assert_allclose(xs[0], xs[2], atol=1e-7)

    def test_reduce_counts_ordering(self, small_elasticity):
        """mgs >> cgs > single_reduce reductions per iteration on a
        moderately-converging (DD-realistic) problem."""
        a, b = small_elasticity.a, small_elasticity.b
        counts = {}
        for v in ("mgs", "cgs", "single_reduce"):
            res = gmres(a, b, rtol=1e-7, restart=30, variant=v)
            counts[v] = res.reduces / max(res.iterations, 1)
        assert counts["mgs"] > counts["cgs"] > counts["single_reduce"]
        assert counts["single_reduce"] < 1.5  # ~one reduce per iteration

    def test_selective_reorthogonalization_engages(self, rng):
        """On fast-converging systems the one-reduce scheme pays for a
        second pass and keeps MGS-level iteration counts."""
        a = random_spd(50, seed=3, density=0.1)
        b = rng.standard_normal(50)
        mgs = gmres(a, b, rtol=1e-8, restart=30, variant="mgs")
        sr = gmres(a, b, rtol=1e-8, restart=30, variant="single_reduce")
        assert sr.iterations <= mgs.iterations + 2

    def test_right_preconditioning_identity_is_noop(self, rng):
        a = random_spd(25, seed=4)
        b = rng.standard_normal(25)
        r1 = gmres(a, b, rtol=1e-9)
        r2 = gmres(a, b, preconditioner=lambda v: v.copy(), rtol=1e-9)
        assert r1.iterations == r2.iterations

    def test_good_preconditioner_reduces_iterations(self, rng):
        a = random_spd(60, seed=5)
        b = rng.standard_normal(60)
        dinv = 1.0 / a.diagonal()
        plain = gmres(a, b, rtol=1e-8, restart=30)
        prec = gmres(a, b, preconditioner=lambda v: dinv * v, rtol=1e-8, restart=30)
        assert prec.iterations <= plain.iterations

    def test_residual_history_monotone_within_cycle(self, rng):
        a = random_spd(40, seed=6)
        b = rng.standard_normal(40)
        res = gmres(a, b, rtol=1e-10, restart=40)  # one cycle
        r = res.residual_norms
        # GMRES minimizes the residual: non-increasing within the cycle
        assert all(r[i + 1] <= r[i] * (1 + 1e-12) for i in range(len(r) - 2))

    def test_zero_rhs(self):
        a = random_spd(10, seed=7)
        res = gmres(a, np.zeros(10))
        assert res.converged
        assert res.iterations == 0

    def test_exact_initial_guess(self, rng):
        a = random_spd(15, seed=8)
        x = rng.standard_normal(15)
        b = a.matvec(x)
        res = gmres(a, b, x0=x, rtol=1e-8)
        assert res.converged
        assert res.iterations == 0

    def test_maxiter_respected(self, rng):
        a = random_spd(80, seed=9, density=0.05)
        b = rng.standard_normal(80)
        res = gmres(a, b, rtol=1e-14, maxiter=7, restart=5)
        assert res.iterations <= 7

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            gmres(random_spd(5), np.ones(5), variant="pipelined")

    def test_restart_cycles_counted(self, rng):
        a = random_spd(60, seed=10, density=0.08)
        b = rng.standard_normal(60)
        res = gmres(a, b, rtol=1e-10, restart=5, maxiter=500)
        # more than one cycle ran, and only the re-entries count
        assert res.iterations > 5
        assert res.restarts >= 1
        assert res.restarts == -(-res.iterations // 5) - 1

    def test_first_cycle_is_not_a_restart(self, rng):
        """A solve converging within one cycle performed zero restarts."""
        a = random_spd(20, seed=31)
        b = rng.standard_normal(20)
        res = gmres(a, b, rtol=1e-8, restart=30)
        assert res.converged
        assert res.restarts == 0

    def test_residual_history_is_pure_estimates(self, rng):
        """residual_norms holds initial + one recurrence estimate per
        inner iteration; explicit residuals live in true_residual_norms."""
        a = random_spd(60, seed=32, density=0.08)
        b = rng.standard_normal(60)
        res = gmres(a, b, rtol=1e-9, restart=5, maxiter=500)
        assert len(res.residual_norms) == res.iterations + 1
        assert res.true_residual_norms  # at least the final confirmation
        its = [it for it, _ in res.true_residual_norms]
        assert its == sorted(its)
        assert its[-1] == res.iterations

    def test_nonpositive_lagged_estimate_is_not_a_breakdown(self, rng):
        """Regression (spurious lucky breakdown): when rounding drives
        the reorthogonalized Pythagorean estimate non-positive, the
        solver must fall back to an explicit norm instead of reporting
        hnext = 0 (which ends the cycle as a lucky breakdown)."""
        from repro.krylov.gmres import _orthogonalize

        class SkewedReducer(ReduceCounter):
            """Emulates a batched reduction whose accumulation order
            biases the projection coefficients up and the norm down
            (breaking the Pythagorean identity: wtw2 < h2 @ h2);
            scalar (explicit-norm) reductions stay exact."""

            def allreduce(self, values):
                out = np.array(super().allreduce(values), dtype=np.float64)
                if out.size > 1:
                    out[:-1] *= 1 + 1e-5
                    out[-1] *= 1 - 1e-5
                return out

        # orthonormal basis; w lies in span(v) up to a tiny real remainder
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        v = q.T[:4].copy()
        w = v[0] + 1e-8 * q.T[5]
        red = SkewedReducer()
        _, hnext, w_orth = _orthogonalize("single_reduce", v, w, red)
        # the remainder is real: the explicit fallback must keep it
        assert hnext > 0.0  # pre-fix: est2 <= 0 yielded hnext == 0.0
        assert hnext == pytest.approx(np.linalg.norm(w_orth), rel=0.2)

    def test_explicit_residual_guard(self, rng):
        """Claimed convergence is verified against the true residual."""
        a = random_spd(50, seed=11)
        b = rng.standard_normal(50)
        res = gmres(a, b, rtol=1e-7, restart=30, variant="single_reduce")
        true = np.linalg.norm(a.matvec(res.x) - b) / np.linalg.norm(b)
        assert res.converged
        assert true <= 1.2e-7


class TestCg:
    def test_converges(self, rng):
        a = random_spd(50, seed=12)
        b = rng.standard_normal(50)
        res = cg(a, b, rtol=1e-9)
        assert res.converged
        assert np.linalg.norm(a.matvec(res.x) - b) <= 1e-8 * np.linalg.norm(b)

    def test_preconditioned_faster(self, rng):
        a = random_spd(80, seed=13, density=0.05)
        b = rng.standard_normal(80)
        dinv = 1.0 / a.diagonal()
        plain = cg(a, b, rtol=1e-8)
        prec = cg(a, b, preconditioner=lambda v: dinv * v, rtol=1e-8)
        assert prec.iterations <= plain.iterations

    def test_matches_gmres(self, rng):
        a = random_spd(30, seed=14)
        b = rng.standard_normal(30)
        x1 = cg(a, b, rtol=1e-11).x
        x2 = gmres(a, b, rtol=1e-11, restart=30).x
        np.testing.assert_allclose(x1, x2, atol=1e-8)

    def test_indefinite_breaks_down_gracefully(self, rng):
        d = np.diag(np.concatenate([np.ones(5), -np.ones(5)]))
        a = CsrMatrix.from_dense(d)
        res = cg(a, rng.standard_normal(10), maxiter=50)
        assert not res.converged  # detected pap <= 0, no crash

    def test_zero_rhs(self):
        res = cg(random_spd(8, seed=15), np.zeros(8))
        assert res.converged and res.iterations == 0


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 40), seed=st.integers(0, 500))
def test_property_gmres_solves_spd(n, seed):
    a = random_spd(n, seed=seed)
    b = np.random.default_rng(seed).standard_normal(n)
    res = gmres(a, b, rtol=1e-8, restart=min(30, n), maxiter=50 * n)
    assert res.converged
    assert np.linalg.norm(a.matvec(res.x) - b) <= 1e-7 * max(np.linalg.norm(b), 1e-30)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 500))
def test_property_gmres_residuals_match_reported(n, seed):
    a = random_spd(n, seed=seed)
    b = np.random.default_rng(seed + 1).standard_normal(n)
    res = gmres(a, b, rtol=1e-9, restart=n)
    true = np.linalg.norm(a.matvec(res.x) - b)
    # the last explicit residual evaluation is the verified true residual
    it, rec = res.true_residual_norms[-1]
    assert it == res.iterations
    assert rec == pytest.approx(true, rel=1e-6, abs=1e-12)
