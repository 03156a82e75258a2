"""Block Krylov parity with the single-RHS solvers.

The serving contract: column ``c`` of a block solve agrees with the
single-RHS solve of ``(a, b[:, c])`` within
``BLOCK_ITERATION_TOLERANCE`` iterations (documented 0 -- the lockstep
implementation is bit-identical per column, which ``k == 1`` pins
exactly and the ``k > 1`` tests verify both at the tolerance contract
and bitwise).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov import gmres
from repro.krylov.block import BLOCK_ITERATION_TOLERANCE, block_gmres
from tests.conftest import random_spd


@pytest.fixture
def system(rng):
    n, k = 40, 4
    a = random_spd(n, seed=11)
    b = rng.standard_normal((n, k))
    return a, b


class TestBlockGmres:
    def test_k1_bit_equivalent(self, system):
        a, b = system
        single = gmres(a, b[:, 0], rtol=1e-8)
        block = block_gmres(a, b[:, :1], rtol=1e-8)
        assert block.iterations[0] == single.iterations
        assert np.array_equal(block.x[:, 0], single.x)
        assert block.residual_norms[0] == single.residual_norms

    def test_k4_within_documented_tolerance(self, system):
        a, b = system
        block = block_gmres(a, b, rtol=1e-8)
        assert block.all_converged
        for c in range(b.shape[1]):
            single = gmres(a, b[:, c], rtol=1e-8)
            assert (
                abs(block.iterations[c] - single.iterations)
                <= BLOCK_ITERATION_TOLERANCE
            )

    def test_k4_bitwise(self, system):
        """Implementation pin: the lockstep schedule preserves each
        column's arithmetic exactly (contiguous-copy dot products)."""
        a, b = system
        block = block_gmres(a, b, rtol=1e-8)
        for c in range(b.shape[1]):
            single = gmres(a, b[:, c], rtol=1e-8)
            assert np.array_equal(block.x[:, c], single.x)
            assert block.residual_norms[c] == single.residual_norms

    def test_batched_reduces_below_sum_of_singles(self, system):
        a, b = system
        block = block_gmres(a, b, rtol=1e-8)
        total = sum(
            gmres(a, b[:, c], rtol=1e-8).reduces for c in range(b.shape[1])
        )
        assert block.reduces < total

    def test_restart_cycles_match(self, system):
        a, b = system
        block = block_gmres(a, b, rtol=1e-10, restart=5)
        for c in range(b.shape[1]):
            single = gmres(a, b[:, c], rtol=1e-10, restart=5)
            assert block.iterations[c] == single.iterations
            assert np.array_equal(block.x[:, c], single.x)

    def test_rejects_1d_rhs(self, system):
        a, b = system
        with pytest.raises(ValueError, match=r"\(n, k\)"):
            block_gmres(a, b[:, 0])

    def test_rejects_unknown_variant(self, system):
        a, b = system
        with pytest.raises(ValueError, match="variant"):
            block_gmres(a, b, variant="qr")

    def test_mixed_convergence_deflates(self, rng):
        """A trivially-easy column retires early without disturbing a
        hard column (deflation shrinks the active block)."""
        n = 30
        a = random_spd(n, seed=5)
        b = np.stack([np.zeros(n), rng.standard_normal(n)], axis=1)
        block = block_gmres(a, b, rtol=1e-8)
        assert block.converged == [True, True]
        assert block.iterations[0] == 0  # zero RHS converges at entry
        assert block.iterations[1] > 0
        single = gmres(a, b[:, 1], rtol=1e-8)
        assert np.array_equal(block.x[:, 1], single.x)
