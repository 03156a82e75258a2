"""Straggler factors on the modeled critical path."""

import numpy as np
import pytest

from repro.bench.harness import model_machine
from repro.runtime import JobLayout, time_solver
from repro.runtime.timings import (
    block_iteration_seconds,
    per_rank_iteration_seconds,
    trace_solver,
)


@pytest.fixture(scope="module")
def built():
    from repro.dd import Decomposition, GDSWPreconditioner
    from repro.fem import laplace_3d

    p = laplace_3d(5, 5, 5)
    dec = Decomposition.from_box_partition(p, 2, 2, 1)
    z = np.ones((p.a.n_rows, 1))
    return GDSWPreconditioner(dec, z)


@pytest.fixture(scope="module")
def layout():
    return JobLayout.cpu_run(1, ranks_per_node=4, machine=model_machine())


class TestPerRankCosts:
    def test_vector_shape_and_positive(self, built, layout):
        costs = per_rank_iteration_seconds(built, layout)
        assert costs.shape == (built.dec.n_subdomains,)
        assert np.all(costs > 0)

    def test_factors_inflate_only_the_named_rank(self, built, layout):
        base = per_rank_iteration_seconds(built, layout)
        factors = np.ones(built.dec.n_subdomains)
        factors[1] = 8.0
        slow = per_rank_iteration_seconds(
            built, layout, rank_factors=factors
        )
        assert slow[1] == pytest.approx(8.0 * base[1])
        others = [r for r in range(base.size) if r != 1]
        np.testing.assert_allclose(slow[others], base[others])

    def test_factor_shape_validated(self, built, layout):
        with pytest.raises(ValueError, match="rank_factors"):
            per_rank_iteration_seconds(
                built, layout, rank_factors=np.ones(3)
            )
        with pytest.raises(ValueError, match=">= 1"):
            per_rank_iteration_seconds(
                built,
                layout,
                rank_factors=np.full(built.dec.n_subdomains, 0.5),
            )


class TestCriticalPath:
    def test_straggler_owns_the_max(self, built, layout):
        base = block_iteration_seconds(built, layout, 1)
        factors = np.ones(built.dec.n_subdomains)
        factors[2] = 10.0
        slow = block_iteration_seconds(
            built, layout, 1, rank_factors=factors
        )
        assert slow > base
        per_rank = per_rank_iteration_seconds(built, layout)
        assert slow == pytest.approx(10.0 * per_rank[2])

    def test_none_factors_identical(self, built, layout):
        assert block_iteration_seconds(built, layout, 1) == (
            block_iteration_seconds(built, layout, 1, rank_factors=None)
        )

    def test_exclude_ranks_drops_straggler_from_max(self, built, layout):
        factors = np.ones(built.dec.n_subdomains)
        factors[1] = 100.0
        full = block_iteration_seconds(
            built, layout, 1, rank_factors=factors
        )
        stale = block_iteration_seconds(
            built, layout, 1, rank_factors=factors, exclude_ranks=(1,)
        )
        assert stale < full
        per_rank = per_rank_iteration_seconds(built, layout)
        others = np.delete(per_rank, 1)
        assert stale == pytest.approx(float(others.max()))


class TestTraceAndTimeSolver:
    def test_time_solver_factors_inflate_everything(self, built, layout):
        base = time_solver(built, layout, 10, 11, 100)
        factors = np.full(built.dec.n_subdomains, 2.0)
        slow = time_solver(
            built, layout, 10, 11, 100, rank_factors=factors
        )
        assert slow.setup_seconds > base.setup_seconds
        assert slow.per_iteration_seconds > base.per_iteration_seconds

    def test_trace_solver_annotates_slow_factor(self, built, layout):
        factors = np.ones(built.dec.n_subdomains)
        factors[0] = 4.0
        _, root = trace_solver(
            built, layout, 5, 6, 60, rank_factors=factors
        )

        def walk(sp):
            yield sp
            for c in sp.children:
                yield from walk(c)

        marked = [
            s for s in walk(root)
            if s.annotations.get("slow_factor") is not None
        ]
        assert marked, "no span carries the slow_factor annotation"
