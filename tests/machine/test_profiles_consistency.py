"""Consistency of the kernel profiles the solvers emit.

The cost tables are only as good as the flop/byte/launch counts under
them; these tests pin the counts to ground truth computable from the
structures themselves.
"""

import numpy as np
import pytest

from repro.direct import GilbertPeierlsLU, MultifrontalCholesky
from repro.fem import elasticity_3d, laplace_3d
from repro.ilu import FastIlu, IlukFactorization
from repro.tri import JacobiTriangular, LevelScheduledTriangular


class TestTriangularProfiles:
    def test_levelset_flop_count_exact(self):
        """sptrsv.level flops = 2*strict_nnz + n (one fma per entry plus
        one divide per row)."""
        p = laplace_3d(4)
        from repro.direct import direct_solver

        s = direct_solver("superlu", ordering="natural").factorize(p.a)
        l = s.l_csr
        solver = LevelScheduledTriangular(l, lower=True)
        prof = solver.kernel_profile()
        n = l.n_rows
        strict = l.nnz - n  # unit diagonal stored explicitly
        assert prof.total_flops == pytest.approx(2 * strict + n)
        assert prof.total_launches == solver.n_levels

    def test_jacobi_flops_scale_with_sweeps(self):
        p = laplace_3d(3)
        from repro.ilu import IlukFactorization

        f = IlukFactorization(level=0).symbolic(p.a).numeric(p.a)
        p3 = JacobiTriangular(f.u, sweeps=3).kernel_profile()
        p6 = JacobiTriangular(f.u, sweeps=6).kernel_profile()
        # sweeps dominate; the fixed scale kernel is shared
        sweep3 = sum(k.flops for k in p3 if "sweep" in k.name)
        sweep6 = sum(k.flops for k in p6 if "sweep" in k.name)
        assert sweep6 == pytest.approx(2 * sweep3)


class TestDirectProfiles:
    def test_gp_lu_flops_match_factor_nnz_bound(self, small_laplace):
        s = GilbertPeierlsLU(ordering="nd").factorize(small_laplace.a)
        # flops >= 2*(nnz(L)-n): every strict L entry required at least
        # one update pass
        n = small_laplace.a.n_rows
        strict_l = s.l_csr.nnz - n
        assert s.flops >= strict_l
        assert s.numeric_profile.total_flops == s.flops

    def test_multifrontal_flops_lower_bound(self, small_elasticity):
        s = MultifrontalCholesky(ordering="nd").factorize(small_elasticity.a)
        # at least n^3/3-type work summed over supernode widths
        total = s.numeric_profile.total_flops
        w = np.diff(s.sn_ptr)
        assert total >= np.sum(w**3) / 3.0

    def test_solve_profile_counts_forward_and_backward(self, small_elasticity):
        s = MultifrontalCholesky().factorize(small_elasticity.a)
        single = s.factor.kernel_profile()
        assert s.solve_profile.total_flops == pytest.approx(2 * single.total_flops)


class TestIluProfiles:
    def test_iluk_numeric_flops_counted(self, small_laplace):
        f = IlukFactorization(level=1).symbolic(small_laplace.a).numeric(small_laplace.a)
        assert f.numeric_profile.total_flops > 0
        # level-set kernels partition the factorization flops
        lv_flops = sum(k.flops for k in f.numeric_profile)
        assert lv_flops == pytest.approx(f.numeric_profile.total_flops)

    def test_fastilu_masked_work_not_expansion(self, small_laplace):
        """The priced sweep work must be the masked intersection count,
        strictly below the full ESC expansion (which only the symbolic
        phase ever sees: the sweep plan keeps the masked products)."""
        sym = FastIlu(level=1, sweeps=1).symbolic(small_laplace.a).symbolic_record
        assert 0 < sym.masked_pairs < sym.expansion_pairs
        assert sym.gather_l.size == sym.gather_u.size == sym.masked_pairs

    def test_fastilu_profile_one_kernel_per_sweep(self, small_laplace):
        f = FastIlu(level=0, sweeps=5).symbolic(small_laplace.a).numeric(small_laplace.a)
        assert len(f.numeric_profile) == 5
        flops = {k.flops for k in f.numeric_profile}
        assert len(flops) == 1  # every sweep costs the same


class TestHalfPrecisionProfiles:
    def test_bytes_exactly_halved_flops_kept(self):
        from repro.dd import (
            Decomposition,
            GDSWPreconditioner,
            HalfPrecisionOperator,
        )
        from repro.fem import rigid_body_modes

        p = elasticity_3d(4)
        dec = Decomposition.from_box_partition(p, 2, 1, 1)
        m = GDSWPreconditioner(dec, rigid_body_modes(p.coordinates))
        h = HalfPrecisionOperator(m)
        for r in range(dec.n_subdomains):
            full = m.rank_setup_profile(r)
            half = h.rank_setup_profile(r)
            assert half.total_bytes == pytest.approx(0.5 * full.total_bytes)
            assert half.total_flops == pytest.approx(full.total_flops)
            assert half.total_launches == full.total_launches
