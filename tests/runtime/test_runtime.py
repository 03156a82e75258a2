"""Runtime layer: layouts, pricing policy, whole-solver timings."""

import pytest

from repro.bench.harness import model_machine
from repro.machine import Kernel, KernelProfile
from repro.runtime import (
    JobLayout,
    halo_seconds,
    price_profile,
    reduce_seconds,
    time_solver,
)


@pytest.fixture(scope="module")
def machine():
    return model_machine()


class TestJobLayout:
    def test_cpu_run_one_rank_per_core(self, machine):
        lay = JobLayout.cpu_run(2, machine=machine)
        assert lay.n_ranks == 16
        assert not lay.use_gpu
        assert lay.threads_per_rank == 1

    def test_cpu_run_reduced_ranks_gain_threads(self, machine):
        lay = JobLayout.cpu_run(1, machine=machine, ranks_per_node=2)
        assert lay.n_ranks == 2
        assert lay.threads_per_rank == 4

    def test_gpu_run_mps(self, machine):
        lay = JobLayout.gpu_run(2, 4, machine=machine)
        assert lay.n_ranks == 16
        assert lay.use_gpu
        assert lay.compute_space().share == 0.25

    def test_gpu_layout_consistency_enforced(self, machine):
        with pytest.raises(ValueError):
            JobLayout(1, 5, use_gpu=True, ranks_per_gpu=2, machine=machine)

    def test_invalid_counts(self, machine):
        with pytest.raises(ValueError):
            JobLayout(0, 1, machine=machine)


class TestPricingPolicy:
    def test_superlu_factor_cpu_priced_even_on_gpu(self, machine):
        prof = KernelProfile([Kernel("factor.superlu_getrf", 1e8, 1e8)])
        cpu = JobLayout.cpu_run(1, machine=machine)
        gpu = JobLayout.gpu_run(1, 4, machine=machine)
        assert price_profile(prof, gpu) == pytest.approx(price_profile(prof, cpu))

    def test_symbolic_cpu_priced(self, machine):
        prof = KernelProfile([Kernel("symbolic.tacho_analysis", 0, 1e8)])
        gpu = JobLayout.gpu_run(1, 1, machine=machine)
        cpu = JobLayout.cpu_run(1, machine=machine)
        assert price_profile(prof, gpu) == pytest.approx(price_profile(prof, cpu))

    def test_comm_kernels_alpha_beta(self, machine):
        prof = KernelProfile([Kernel("comm.overlap_import", 0, 1e6)])
        lay = JobLayout.cpu_run(1, machine=machine)
        expected = machine.alpha + 1e6 * machine.beta
        assert price_profile(prof, lay) == pytest.approx(expected)

    def test_gpu_kernels_pay_launches(self, machine):
        gpu = JobLayout.gpu_run(1, 1, machine=machine)
        few = KernelProfile([Kernel("sptrsv.level", 1e3, 1e3, 1e6, launches=1)])
        many = KernelProfile([Kernel("sptrsv.level", 1e3, 1e3, 1e6, launches=100)])
        assert price_profile(many, gpu) > price_profile(few, gpu)

    def test_coarse_scale_applied_everywhere(self, machine):
        prof = KernelProfile([Kernel("coarse.spgemm_a0", 1e8, 1e8, 1e6)])
        ref = KernelProfile([Kernel("apply.spmv", 1e8, 1e8, 1e6)])
        cpu = JobLayout.cpu_run(1, machine=machine)
        assert price_profile(prof, cpu) == pytest.approx(
            machine.coarse_scale * price_profile(ref, cpu)
        )

    def test_reduce_cost_scales_with_ranks(self, machine):
        small = JobLayout.cpu_run(1, machine=machine)
        big = JobLayout.cpu_run(8, machine=machine)
        assert reduce_seconds(big, 10, 100) > reduce_seconds(small, 10, 100)
        assert reduce_seconds(small, 0, 0) == 0.0

    def test_halo_cost(self, machine):
        lay = JobLayout.cpu_run(1, machine=machine)
        assert halo_seconds(lay, 0) == 0.0
        assert halo_seconds(lay, 1000) > halo_seconds(lay, 100)


class TestTimeSolver:
    @pytest.fixture(scope="class")
    def built(self):
        from repro.dd import (
            Decomposition,
            GDSWPreconditioner,
            LocalSolverSpec,
            SchwarzConfig,
        )
        from repro.fem import elasticity_3d, rigid_body_modes

        p = elasticity_3d(6)
        z = rigid_body_modes(p.coordinates)
        dec = Decomposition.from_box_partition(p, 2, 2, 2)
        return GDSWPreconditioner(
            dec, z, SchwarzConfig(local=LocalSolverSpec(kind="tacho"))
        )

    def test_timings_populated(self, built, machine):
        lay = JobLayout.cpu_run(1, machine=machine)
        t = time_solver(built, lay, iterations=30, reduces=33, reduce_doubles=400)
        assert t.setup_seconds > 0
        assert t.solve_seconds > 0
        assert t.iterations == 30
        assert t.total_seconds == pytest.approx(t.setup_seconds + t.solve_seconds)
        assert t.per_iteration_seconds > 0
        assert t.first_setup_seconds >= t.setup_seconds
        assert "factor" in t.setup_breakdown

    def test_solve_time_linear_in_iterations(self, built, machine):
        lay = JobLayout.cpu_run(1, machine=machine)
        t1 = time_solver(built, lay, 10, 11, 100)
        t2 = time_solver(built, lay, 20, 22, 200)
        assert t2.solve_seconds > 1.8 * t1.solve_seconds

    def test_rank_count_mismatch_rejected(self, built, machine):
        lay = JobLayout.cpu_run(2, machine=machine)  # 16 ranks vs 8 subdomains
        with pytest.raises(ValueError):
            time_solver(built, lay, 10, 11, 100)
