"""Benchmark harness: geometry, caching, numerics records, pricing."""

import numpy as np
import pytest

from repro.bench import (
    model_machine,
    price_run,
    rank_grid,
    run_numerics,
    strong_scaled_problem,
    weak_scaled_problem,
)
from repro.bench.harness import clear_cache
from repro.bench.tables import format_cell, format_table, speedup_row
from repro.dd import LocalSolverSpec, SchwarzConfig
from repro.runtime import JobLayout


class TestGeometry:
    def test_rank_grid_products(self):
        assert np.prod(rank_grid(1, 8)) == 8
        assert np.prod(rank_grid(2, 4)) == 8
        assert np.prod(rank_grid(8, 2)) == 16

    def test_weak_scaling_doubles_problem(self):
        clear_cache()
        p1 = weak_scaled_problem(1, 4)
        p2 = weak_scaled_problem(2, 4)
        # sizes roughly double (boundary effects make it inexact)
        assert 1.8 < p2.a.n_rows / p1.a.n_rows < 2.2

    def test_problem_cache_returns_same_object(self):
        a = weak_scaled_problem(1, 4)
        b = weak_scaled_problem(1, 4)
        assert a is b

    def test_strong_problem_fixed(self):
        p = strong_scaled_problem(6)
        assert p.a.n_rows == 3 * (7 * 7 * 6)

    def test_model_machine_node_shape(self):
        m = model_machine()
        assert m.cores_per_node == 8
        assert m.gpus_per_node == 2


class TestNumerics:
    @pytest.fixture(scope="class")
    def rec(self):
        clear_cache()
        prob = weak_scaled_problem(1, 4)
        cfg = SchwarzConfig(local=LocalSolverSpec(kind="tacho"))
        return run_numerics(prob, rank_grid(1, 8), cfg, cache_key=("t", 1, 4))

    def test_record_fields(self, rec):
        assert rec.converged
        assert rec.iterations > 0
        assert rec.n_ranks == 8
        assert rec.final_relres < 1.5e-7
        assert rec.reduces >= rec.iterations

    def test_memoization(self, rec):
        prob = weak_scaled_problem(1, 4)
        cfg = SchwarzConfig(local=LocalSolverSpec(kind="tacho"))
        again = run_numerics(prob, rank_grid(1, 8), cfg, cache_key=("t", 1, 4))
        assert again is rec

    def test_different_config_not_cached(self, rec):
        prob = weak_scaled_problem(1, 4)
        cfg = SchwarzConfig(local=LocalSolverSpec(kind="tacho"), overlap=2)
        other = run_numerics(prob, rank_grid(1, 8), cfg, cache_key=("t", 1, 4))
        assert other is not rec

    def test_pricing_cpu_vs_gpu(self, rec):
        m = model_machine()
        cpu = price_run(rec, JobLayout.cpu_run(1, machine=m))
        gpu = price_run(rec, JobLayout.gpu_run(1, 4, machine=m))
        assert cpu.iterations == gpu.iterations  # pricing never changes numerics
        assert cpu.setup_seconds > 0 and gpu.setup_seconds > 0

    def test_single_precision_keeps_iterations(self):
        prob = weak_scaled_problem(1, 4)
        dbl = run_numerics(
            prob, rank_grid(1, 8), SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
            cache_key=("t", 1, 4),
        )
        sgl = run_numerics(
            prob,
            rank_grid(1, 8),
            SchwarzConfig(local=LocalSolverSpec(kind="tacho"), precision="single"),
            cache_key=("t", 1, 4),
        )
        assert sgl.converged
        assert abs(sgl.iterations - dbl.iterations) <= 3


class TestTables:
    def test_format_cell(self):
        assert format_cell(1.234, 56) == "1.23 (56)"
        assert format_cell(1.234) == "1.23"
        assert format_cell(None) == "-"

    def test_speedup_row(self):
        row = speedup_row([2.0, 3.0], [1.0, 1.5])
        assert row == ["speedup", "2.0x", "2.0x"]

    def test_format_table_aligns(self):
        out = format_table("T", ["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])
