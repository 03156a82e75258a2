"""Bit-identity of the de-looped setup kernels against the seed loops.

The vectorized `level_schedule` / `detect_supernodes` /
`_diag_positions` must match their retained ``*_reference``
implementations exactly -- these are structure computations, so "close"
is not a meaningful notion; any difference is a bug.
"""

import numpy as np
import pytest

from repro.bench.kernel_bench import laplace_lower_structure, run_kernel_bench
from repro.ilu.fastilu import _diag_positions, _diag_positions_reference
from repro.sparse.csr import CsrMatrix
from repro.tri.levelset import _level_schedule_reference, level_schedule
from repro.tri.supernodal import _detect_supernodes_reference, detect_supernodes


def random_triangular(n, seed, lower=True, density=0.25):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n))
    d[rng.random((n, n)) > density] = 0.0
    t = np.tril(d, -1) if lower else np.triu(d, 1)
    t += np.diag(1.0 + rng.random(n))
    return CsrMatrix.from_dense(t)


def random_chain_pattern(n, seed, density=0.3):
    """Lower CSC pattern biased toward supernodal chains."""
    rng = np.random.default_rng(seed)
    d = np.tril(rng.random((n, n)) < density, -1)
    # bias: copy-shift some adjacent columns to create chains
    for j in range(1, n):
        if rng.random() < 0.5:
            d[j + 1 :, j] = d[j + 1 :, j - 1][: n - j - 1] if j + 1 < n else []
            d[j:, j - 1] = True
    np.fill_diagonal(d, True)
    c = CsrMatrix.from_dense(np.triu(d.T.astype(float)))  # CSC == CSR of T^T
    return c.indptr, c.indices


class TestLevelSchedule:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("lower", [True, False])
    def test_matches_reference(self, seed, lower):
        t = random_triangular(40, seed, lower=lower)
        np.testing.assert_array_equal(
            level_schedule(t, lower=lower),
            _level_schedule_reference(t, lower=lower),
        )

    def test_empty_matrix(self):
        t = CsrMatrix.from_dense(np.zeros((0, 0)))
        assert level_schedule(t).size == 0

    def test_diagonal_is_single_level(self):
        t = CsrMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(level_schedule(t), [0, 0, 0])

    def test_bidiagonal_is_sequential(self):
        d = np.eye(5) + np.diag(np.ones(4), -1)
        t = CsrMatrix.from_dense(d)
        np.testing.assert_array_equal(level_schedule(t), np.arange(5))


class TestDetectSupernodes:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("max_width", [1, 2, 3, 64])
    def test_matches_reference(self, seed, max_width):
        indptr, indices = random_chain_pattern(30, seed)
        np.testing.assert_array_equal(
            detect_supernodes(indptr, indices, max_width=max_width),
            _detect_supernodes_reference(indptr, indices, max_width=max_width),
        )

    def test_empty(self):
        indptr = np.zeros(1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(
            detect_supernodes(indptr, indices),
            _detect_supernodes_reference(indptr, indices),
        )

    def test_dense_chain_splits_at_max_width(self):
        n = 10
        d = np.tril(np.ones((n, n)))
        c = CsrMatrix.from_dense(d.T)  # CSC of lower == CSR of upper
        sn = detect_supernodes(c.indptr, c.indices, max_width=4)
        np.testing.assert_array_equal(sn, [0, 4, 8, 10])


class TestDiagPositions:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        t = random_triangular(35, seed, lower=False)
        np.testing.assert_array_equal(
            _diag_positions(t.indptr, t.indices),
            _diag_positions_reference(t.indptr, t.indices),
        )

    def test_missing_diagonal_error_parity(self):
        # upper pattern whose row 1 has no diagonal entry
        d = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        t = CsrMatrix.from_dense(d)
        with pytest.raises(ValueError, match="diagonal in row 1"):
            _diag_positions_reference(t.indptr, t.indices)
        with pytest.raises(ValueError, match="diagonal in row 1"):
            _diag_positions(t.indptr, t.indices)


class TestBenchHarness:
    def test_small_run_bit_identical(self):
        report = run_kernel_bench(nx=6, repeats=1)
        assert report["violations"] == []  # speedup gate only at n >= 100k
        for rec in report["paths"].values():
            assert rec["bit_identical"]

    def test_structure_shape(self):
        t = laplace_lower_structure(4, 4, 4)
        assert t.n_rows == 64
        # interior rows have 4 entries (diag + 3 lower neighbours)
        assert t.nnz == 64 + 3 * (4 * 4 * 3)
