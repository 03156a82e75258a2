"""Differential tests of the triangular kernels and direct solvers vs scipy.

Every ``repro.tri`` kernel, and both direct solvers, on generated
inputs -- 1x1 systems, diagonal matrices (empty strict part), unit
diagonals, float32 factors -- through the 1-D *and* the 2-D ``b`` path,
against ``scipy.linalg.solve_triangular`` / a dense solve.  The 2-D path
must also reproduce the 1-D path column by column, bit for bit, and
``block_diag`` of several factors must reproduce the separate solves bit
for bit: the two contracts the merged Schwarz apply stands on.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.direct import GilbertPeierlsLU, MultifrontalCholesky
from repro.sparse import CsrMatrix
from repro.tri import (
    JacobiTriangular,
    LevelScheduledTriangular,
    PartitionedInverseTriangular,
    SupernodalTriangular,
    solve_lower,
    solve_upper,
)
from repro.tri.levelset import (
    _level_plan,
    _level_plan_reference,
    _split_levels,
    level_schedule,
)


def lower_factor(n, seed, density, unit, dtype):
    """A well-conditioned dense lower-triangular matrix and its CSR form."""
    rng = np.random.default_rng(seed)
    strict = np.tril(rng.uniform(-0.5, 0.5, (n, n)), -1)
    strict[rng.random((n, n)) >= density] = 0.0
    diag = np.ones(n) if unit else rng.uniform(1.0, 2.0, n)
    dense = (strict + np.diag(diag)).astype(dtype)
    # from_dense drops zeros: re-add the diagonal structurally
    rows, cols = np.nonzero(dense)
    return dense, CsrMatrix.from_coo(rows, cols, dense[rows, cols], (n, n))


def rhs(n, k, seed):
    rng = np.random.default_rng(seed + 1000)
    return rng.standard_normal(n if k == 0 else (n, k))


#: (n, seed, density, unit diagonal, factor dtype, rhs columns; 0 = 1-D)
cases = st.tuples(
    st.integers(1, 14),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.booleans(),
    st.sampled_from([np.float64, np.float32]),
    st.sampled_from([0, 1, 3]),
)


def tolerance(dtype):
    return 1e-10 if dtype == np.float64 else 2e-4


def assert_columns_match_vectors(solve, b, x):
    """The 2-D result is, column by column, the 1-D result."""
    if b.ndim == 2:
        for j in range(b.shape[1]):
            assert np.array_equal(x[:, j], solve(np.ascontiguousarray(b[:, j])))


@settings(max_examples=40, deadline=None)
@given(cases)
def test_substitution_and_levelset_vs_scipy(case):
    n, seed, density, unit, dtype, k = case
    dense, l = lower_factor(n, seed, density, unit, dtype)
    b = rhs(n, k, seed)
    tol = tolerance(dtype)
    want = sla.solve_triangular(dense.astype(np.float64), b, lower=True)
    if unit:  # the substitution kernels take strict storage for unit diagonals
        strict = np.tril(dense, -1)
        rows, cols = np.nonzero(strict)
        l_strict = CsrMatrix.from_coo(rows, cols, strict[rows, cols], (n, n))
        np.testing.assert_allclose(
            solve_lower(l_strict, b, unit_diagonal=True), want, rtol=tol, atol=tol
        )
    else:
        np.testing.assert_allclose(solve_lower(l, b), want, rtol=tol, atol=tol)
    lev = LevelScheduledTriangular(l, lower=True, unit_diagonal=unit)
    x = lev.solve(b)
    np.testing.assert_allclose(x, want, rtol=tol, atol=tol)
    assert_columns_match_vectors(lev.solve, b, x)

    # upper orientation: the transpose
    u = l.transpose()
    want_u = sla.solve_triangular(dense.T.astype(np.float64), b, lower=False)
    if not unit:
        np.testing.assert_allclose(solve_upper(u, b), want_u, rtol=tol, atol=tol)
    lev_u = LevelScheduledTriangular(u, lower=False, unit_diagonal=unit)
    x = lev_u.solve(b)
    np.testing.assert_allclose(x, want_u, rtol=tol, atol=tol)
    assert_columns_match_vectors(lev_u.solve, b, x)


@settings(max_examples=40, deadline=None)
@given(cases)
def test_supernodal_vs_scipy(case):
    n, seed, density, unit, dtype, k = case
    dense, l = lower_factor(n, seed, density, unit, dtype)
    lt = l.transpose()  # CSC of L
    snt = SupernodalTriangular.from_csc(
        lt.indptr, lt.indices, lt.data, n, unit_diagonal=unit, max_width=4
    )
    b = rhs(n, k, seed)
    tol = tolerance(dtype)
    dense64 = dense.astype(np.float64)
    x = snt.solve_forward(b)
    np.testing.assert_allclose(
        x, sla.solve_triangular(dense64, b, lower=True), rtol=tol, atol=tol
    )
    assert_columns_match_vectors(snt.solve_forward, b, x)
    x = snt.solve_backward(b)
    np.testing.assert_allclose(
        x, sla.solve_triangular(dense64.T, b, lower=False), rtol=tol, atol=tol
    )
    assert_columns_match_vectors(snt.solve_backward, b, x)


@settings(max_examples=25, deadline=None)
@given(cases)
def test_partitioned_inverse_and_jacobi_vs_scipy(case):
    n, seed, density, unit, dtype, k = case
    dense, l = lower_factor(n, seed, density, unit, dtype)
    b = rhs(n, k, seed)
    tol = tolerance(dtype)
    want = sla.solve_triangular(dense.astype(np.float64), b, lower=True)
    pinv = PartitionedInverseTriangular(l, lower=True, unit_diagonal=unit)
    np.testing.assert_allclose(pinv.solve(b), want, rtol=tol, atol=tol)
    # undamped Jacobi is exact after n sweeps (nilpotent iteration
    # matrix); with a unit diagonal it takes strict storage
    t = l
    if unit:
        strict = np.tril(dense, -1)
        rows, cols = np.nonzero(strict)
        t = CsrMatrix.from_coo(rows, cols, strict[rows, cols], (n, n))
    jac = JacobiTriangular(t, sweeps=n, unit_diagonal=unit, damping=1.0)
    x = jac.solve(b)
    np.testing.assert_allclose(x, want, rtol=tol, atol=tol)
    assert_columns_match_vectors(jac.solve, b, x)


def spd_matrix(n, seed, density):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (n, n))
    m[rng.random((n, n)) >= density] = 0.0
    a = m @ m.T + n * np.eye(n)
    return a, CsrMatrix.from_dense(a)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(0, 10_000),
    st.sampled_from([0.0, 0.2, 0.6]),
    st.sampled_from([0, 1, 3]),
    st.sampled_from(["natural", "nd", "rcm"]),
)
def test_direct_solvers_vs_dense_solve(n, seed, density, k, ordering):
    dense, a = spd_matrix(n, seed, density)
    b = rhs(n, k, seed)
    want = np.linalg.solve(dense, b)
    for solver in (
        MultifrontalCholesky(ordering=ordering, max_supernode=3),
        MultifrontalCholesky(ordering=ordering, mode="ldlt"),
        GilbertPeierlsLU(ordering=ordering),
    ):
        solver.factorize(a)
        x = solver.solve(b)
        assert x.dtype == np.float64 and x.shape == b.shape
        np.testing.assert_allclose(x, want, rtol=1e-9, atol=1e-11)
        assert_columns_match_vectors(solver.solve, b, x)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 16), st.integers(0, 10_000), st.sampled_from([0, 2]))
def test_gp_lu_nonsymmetric_vs_dense_solve(n, seed, k):
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, (n, n))
    dense[rng.random((n, n)) >= 0.4] = 0.0
    dense += np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.05, 3.0, n))
    if abs(np.linalg.det(dense)) < 1e-6:  # keep the oracle well-posed
        dense += n * np.eye(n)
    b = rhs(n, k, seed)
    solver = GilbertPeierlsLU(ordering="natural").factorize(CsrMatrix.from_dense(dense))
    np.testing.assert_allclose(
        solver.solve(b), np.linalg.solve(dense, b), rtol=1e-7, atol=1e-9
    )


# ----------------------------------------------------------------------
# block_diag: concatenated plans reproduce the separate solves bitwise
# ----------------------------------------------------------------------
def _parts(make, sizes=(1, 7, 4, 12), unit=False):
    return [
        make(*lower_factor(n, seed=17 * i + n, density=0.5, unit=unit, dtype=np.float64))
        for i, n in enumerate(sizes)
    ]


def _assert_block_diag_bitwise(merged_solve, part_solves, sizes, seed=3):
    rng = np.random.default_rng(seed)
    for shape in ((sum(sizes),), (sum(sizes), 3)):
        b = rng.standard_normal(shape)
        x = merged_solve(b)
        lo = 0
        for solve, n in zip(part_solves, sizes):
            assert np.array_equal(x[lo : lo + n], solve(b[lo : lo + n]))
            lo += n


@pytest.mark.parametrize("unit", [False, True])
@pytest.mark.parametrize("lower", [True, False])
def test_levelset_block_diag_bitwise(lower, unit):
    sizes = (1, 7, 4, 12)
    parts = _parts(
        lambda dense, l: LevelScheduledTriangular(
            l if lower else l.transpose(), lower=lower, unit_diagonal=unit
        ),
        sizes,
        unit,
    )
    merged = LevelScheduledTriangular.block_diag(parts)
    assert merged.n_levels == max(p.n_levels for p in parts)
    _assert_block_diag_bitwise(merged.solve, [p.solve for p in parts], sizes)
    # the merged plan is the plan of the block-diagonal matrix
    assert merged.kernel_profile().total_flops == sum(
        p.kernel_profile().total_flops for p in parts
    )


@pytest.mark.parametrize("unit", [False, True])
def test_supernodal_block_diag_bitwise(unit):
    sizes = (1, 7, 4, 12)

    def make(dense, l):
        lt = l.transpose()
        return SupernodalTriangular.from_csc(
            lt.indptr, lt.indices, lt.data, l.n_rows, unit_diagonal=unit, max_width=3
        )

    parts = _parts(make, sizes, unit)
    before = [[blk.copy() for blk in p.blocks] for p in parts]
    merged = SupernodalTriangular.block_diag(parts)
    assert merged.n_levels == max(p.n_levels for p in parts)
    assert merged.n_supernodes == sum(p.n_supernodes for p in parts)
    _assert_block_diag_bitwise(
        merged.solve_forward, [p.solve_forward for p in parts], sizes
    )
    _assert_block_diag_bitwise(
        merged.solve_backward, [p.solve_backward for p in parts], sizes
    )
    # merging re-points the parts' storage at the merged stacks: same
    # values, one copy
    for p, blocks in zip(parts, before):
        for blk, old in zip(p.blocks, blocks):
            assert np.array_equal(blk, old)
            assert any(np.shares_memory(blk, stack) for stack in merged._stacks)


def test_jacobi_block_diag_bitwise():
    sizes = (1, 7, 4, 12)
    parts = _parts(lambda dense, l: JacobiTriangular(l, sweeps=4, damping=0.8), sizes)
    merged = JacobiTriangular.block_diag(parts)
    _assert_block_diag_bitwise(merged.solve, [p.solve for p in parts], sizes)


def test_block_diag_rejects_mixed_kinds():
    (_, a), (_, b) = (lower_factor(4, s, 0.5, False, np.float64) for s in (1, 2))
    with pytest.raises(ValueError, match="merge"):
        LevelScheduledTriangular.block_diag(
            [LevelScheduledTriangular(a), LevelScheduledTriangular(b, unit_diagonal=True)]
        )
    with pytest.raises(ValueError, match="merge"):
        JacobiTriangular.block_diag(
            [JacobiTriangular(a, sweeps=2), JacobiTriangular(b, sweeps=3)]
        )


# ----------------------------------------------------------------------
# regressions
# ----------------------------------------------------------------------
def test_same_level_siblings_accumulate_into_shared_parent_row():
    """Two sibling supernodes of one class update the same parent row.

    ``rows_below`` of supernodes 0 and 1 both name row 2, and both sit
    in the same (level 0, w=1, m=1) class, so their updates arrive in
    one scatter: a plain fancy-indexed ``x[rows] -= upd`` keeps only the
    last one.
    """
    dense = np.array([[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [1.0, 3.0, 5.0]])
    snt = SupernodalTriangular(
        3,
        np.array([0, 1, 2, 3]),
        [np.array([2]), np.array([2]), np.array([], dtype=np.int64)],
        [dense[[0, 2], :1], dense[[1, 2], 1:2], dense[2:, 2:]],
    )
    level, sns, _, rows = snt.schedule.classes[0]
    assert (level, sns.tolist(), rows.tolist()) == (0, [0, 1], [[2], [2]])
    b = np.array([2.0, 4.0, 10.0])
    np.testing.assert_allclose(snt.solve_forward(b), [1.0, 1.0, 1.2], rtol=1e-15)
    np.testing.assert_allclose(
        dense.T @ snt.solve_backward(b), b, rtol=1e-14, atol=1e-14
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10_000), st.sampled_from([0.0, 0.1, 0.5]))
def test_level_plan_matches_reference_loop(n, seed, density):
    """The sort-based plan builder reproduces the seed mask loop exactly."""
    _, l = lower_factor(n, seed, density, False, np.float64)
    for t, lower in ((l, True), (l.transpose(), False)):
        rows = t.expanded_rows()
        strict = t.indices < rows if lower else t.indices > rows
        level = level_schedule(t, lower=lower)
        args = (level, rows[strict], t.indices[strict], t.data[strict])
        got = _split_levels(level, *_level_plan(*args))
        for new, ref in zip(got, _level_plan_reference(*args)):
            assert len(new) == len(ref)
            for x, y in zip(new, ref):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def test_tacho_passes_its_symbolic_levels_to_the_solve_schedule():
    """``MultifrontalCholesky.symbolic`` holds the solve levels already.

    The assembly-tree height equals the level of the forward-solve DAG
    that ``SupernodeSchedule`` would compute from ``rows_below``, so a
    numeric refactorization reuses the schedule object instead of
    rescheduling.
    """
    from repro.fem import elasticity_3d
    from repro.tri.supernodal import SupernodeSchedule

    a = elasticity_3d(3).a
    solver = MultifrontalCholesky(ordering="nd").factorize(a)
    schedule = solver.factor.schedule
    fresh = SupernodeSchedule(a.n_rows, solver.sn_ptr, schedule.rows_below)
    assert np.array_equal(schedule.levels, fresh.levels)
    solver.refactorize(a)
    assert solver.factor.schedule is schedule
