"""The SuperLU refactorization replays the recorded pivot sequence.

``GilbertPeierlsLU.replay(a2)`` against a fresh ``factorize(a2)``: when
the new values leave every pivot choice unchanged the replayed factors
must equal the fresh ones bit for bit (``L``, ``U``, ``row_perm``,
``flops``, the CSR forms and ``stages.apply``); when they do not (a
changed winner, an exact tie, a vanishing column) the replay declines
and ``GilbertPeierlsLU.refactorize`` -- the one refactor path of
``FactoredLocal.refactor`` and of the coarse extension's solver cache
-- falls back to the full rebuild, which again equals the fresh build
bit for bit or raises the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.direct.gp_lu as gp_lu
from repro.dd.local_solvers import LocalSolverSpec
from repro.direct import GilbertPeierlsLU
from repro.obs import Tracer, use_tracer
from repro.resilience.detect import PivotBreakdownError
from repro.reuse.fingerprint import PatternChangedError
from repro.sparse import CsrMatrix
from tests.conftest import solver_constants


def nonsymmetric(n, seed, density=0.2, diag_scale=0.3):
    """A seeded nonsymmetric sparse matrix that pivots off the diagonal.

    A random pattern with uniform values, a diagonal of random size
    ``diag_scale`` (small, so partial pivoting often leaves it) and a
    random permutation of large entries, which keeps the matrix
    structurally and numerically nonsingular.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    vals = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    np.fill_diagonal(mask, True)
    np.fill_diagonal(vals, diag_scale * rng.uniform(-1.0, 1.0, n))
    p = rng.permutation(n)
    mask[np.arange(n), p] = True
    vals[np.arange(n), p] += rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 4.0, n)
    rows, cols = np.nonzero(mask)
    return CsrMatrix.from_coo(rows, cols, vals[rows, cols], (n, n))


def perturbed(a, seed, eps):
    """``a`` with every value scaled by a seeded ``1 + eps * U(-1, 1)``."""
    rng = np.random.default_rng(seed)
    data = a.data * (1.0 + eps * rng.uniform(-1.0, 1.0, a.nnz))
    return CsrMatrix(a.indptr, a.indices, data, a.shape)


def assert_same_factors(x, y):
    for mine, theirs in zip(x._l + x._u, y._l + y._u):
        assert np.array_equal(mine, theirs)
        assert mine.dtype == theirs.dtype
    assert np.array_equal(x.row_perm, y.row_perm)
    assert np.array_equal(x.pinv, y.pinv)
    assert x.flops == y.flops
    for mine, theirs in ((x.l_csr, y.l_csr), (x.u_csr, y.u_csr)):
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
        assert np.array_equal(mine.data, theirs.data)
    assert list(x.numeric_profile) == list(y.numeric_profile)
    v = np.cos(np.arange(x.pinv.size) + 0.5)
    assert np.array_equal(x.stages.apply(v), y.stages.apply(v))
    block = np.stack([v, v[::-1]], axis=1)
    assert np.array_equal(x.stages.apply(block), y.stages.apply(block))


def refactor_traced(local, a2):
    """``local.refactor(a2)`` under a span, and what the span recorded."""
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("reuse/local_refactor") as sp:
        out = local.refactor(a2)
    return out, sp.annotations.get("pivots")


ORDERINGS = st.sampled_from(["nd", "natural"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.05, 0.2, 0.5]),
    eps=st.sampled_from([1e-9, 1e-4, 0.3, 1.0]),
    ordering=ORDERINGS,
    pivot_tol=st.sampled_from([1.0, 0.5, 0.1]),
)
def test_replay_is_bit_identical_or_declines(n, seed, density, eps, ordering, pivot_tol):
    a = nonsymmetric(n, seed, density)
    a2 = perturbed(a, seed + 1, eps)
    with solver_constants(pivot_tol=pivot_tol):
        warm = GilbertPeierlsLU(ordering=ordering).factorize(a)
        before = [arr.copy() for arr in warm._l + warm._u]
        fresh = GilbertPeierlsLU(ordering=ordering).factorize(a2)
        replayed = warm.replay(a2)
        # continuous random values never tie: the replay runs exactly
        # when numeric keeps the recorded pivot sequence
        assert (replayed is not None) == np.array_equal(fresh.row_perm, warm.row_perm)
        if replayed is not None:
            assert_same_factors(replayed, fresh)
            # and back to the original values, from the replayed record
            assert_same_factors(replayed.pivot_record().replay(a), warm)
    # the source factorization is untouched
    assert all(np.array_equal(x, y) for x, y in zip(before, warm._l + warm._u))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    eps=st.sampled_from([1e-6, 0.5]),
    gpu_solve=st.booleans(),
)
def test_local_refactor_equals_cold_build(n, seed, eps, gpu_solve):
    a = nonsymmetric(n, seed)
    a2 = perturbed(a, seed + 7, eps)
    spec = LocalSolverSpec(kind="superlu", ordering="nd", gpu_solve=gpu_solve)
    warm, pivots = refactor_traced(spec.build(a), a2)
    cold = spec.build(a2)
    assert pivots in ("replayed", "rebuilt")
    v = np.sin(np.arange(n) + 1.0)
    assert np.array_equal(warm.apply(v), cold.apply(v))
    assert list(warm.numeric_profile) == list(cold.numeric_profile)
    assert list(warm.symbolic_profile) == list(cold.symbolic_profile)
    assert list(warm.solve_profile) == list(cold.solve_profile)
    assert list(warm.setup_profile) == list(cold.setup_profile)
    assert warm.symbolic_reusable is False


def test_family_pivots_off_the_diagonal_and_replays():
    a = nonsymmetric(30, 3)
    warm = GilbertPeierlsLU(ordering="nd").factorize(a)
    assert not np.array_equal(warm.row_perm, np.arange(30))
    a2 = perturbed(a, 4, 1e-6)
    replayed = warm.replay(a2)
    assert replayed is not None
    assert_same_factors(replayed, GilbertPeierlsLU(ordering="nd").factorize(a2))


def test_laplace_blocks_replay_and_return(small_laplace):
    """Diagonal pivots on an SPD block: ``D A D`` and back both replay."""
    a = small_laplace.a
    d = 1.0 + 0.1 * np.random.default_rng(0).random(a.n_rows)
    a2 = CsrMatrix(
        a.indptr, a.indices, d[a.expanded_rows()] * a.data * d[a.indices], a.shape
    )
    warm = GilbertPeierlsLU(ordering="nd").factorize(a)
    replayed = warm.pivot_record().replay(a2)
    assert replayed is not None
    assert_same_factors(replayed, GilbertPeierlsLU(ordering="nd").factorize(a2))
    assert_same_factors(replayed.pivot_record().replay(a), warm)


def dense_csr(m):
    rows, cols = np.nonzero(np.ones_like(m, dtype=bool))
    return CsrMatrix.from_coo(rows, cols, m[rows, cols], m.shape)


def test_changed_pivot_falls_back():
    a = dense_csr(np.array([[1.0, 2.0], [3.0, 4.0]]))  # pivots row 1
    a2 = dense_csr(np.array([[1.0, 2.0], [0.5, 4.0]]))  # keeps the diagonal
    spec = LocalSolverSpec(kind="superlu", ordering="natural")
    local = spec.build(a)
    assert GilbertPeierlsLU(ordering="natural").factorize(a).replay(a2) is None
    warm, pivots = refactor_traced(local, a2)
    assert pivots == "rebuilt"
    v = np.array([1.0, -2.0])
    assert np.array_equal(warm.apply(v), spec.build(a2).apply(v))
    # the rebuilt factorization records the new sequence and replays it
    _, pivots = refactor_traced(warm, dense_csr(np.array([[1.0, 2.0], [0.25, 4.0]])))
    assert pivots == "replayed"


def test_diagonal_rising_above_threshold_declines():
    # the recorded off-diagonal pivot stays the column maximum, but the
    # diagonal now passes numeric's threshold rule, so numeric keeps it
    a = dense_csr(np.array([[0.1, 1.0], [3.0, 4.0]]))
    a2 = dense_csr(np.array([[2.0, 1.0], [3.0, 4.0]]))
    with solver_constants(pivot_tol=0.5):
        warm = GilbertPeierlsLU(ordering="natural").factorize(a)
        assert warm.row_perm.tolist() == [1, 0]
        fresh = GilbertPeierlsLU(ordering="natural").factorize(a2)
        assert fresh.row_perm.tolist() == [0, 1]
        assert warm.replay(a2) is None


def test_exact_tie_falls_back():
    # column 0: the diagonal is below threshold and rows 1 and 2 tie
    m = np.array([[0.1, 1.0, 2.0], [3.0, 5.0, 1.0], [2.0, 1.0, 6.0]])
    m2 = m.copy()
    m2[2, 0] = 3.0
    a, a2 = dense_csr(m), dense_csr(m2)
    warm = GilbertPeierlsLU(ordering="natural").factorize(a)
    fresh = GilbertPeierlsLU(ordering="natural").factorize(a2)
    # numeric breaks the tie the same way, but the replay does not guess
    assert np.array_equal(fresh.row_perm, warm.row_perm)
    assert warm.replay(a2) is None
    spec = LocalSolverSpec(kind="superlu", ordering="natural")
    refactored, pivots = refactor_traced(spec.build(a), a2)
    assert pivots == "rebuilt"
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(refactored.apply(v), spec.build(a2).apply(v))


def test_diagonal_at_threshold_replays():
    # |a_00| == column max: numeric's threshold rule keeps the diagonal
    m = np.array([[3.0, 1.0], [1.0, 4.0]])
    m2 = np.array([[3.0, 1.0], [-3.0, 4.0]])
    warm = GilbertPeierlsLU(ordering="natural").factorize(dense_csr(m))
    replayed = warm.replay(dense_csr(m2))
    assert replayed is not None
    assert_same_factors(
        replayed, GilbertPeierlsLU(ordering="natural").factorize(dense_csr(m2))
    )


def test_negative_zero_input_declines():
    a = nonsymmetric(12, 5, density=0.4)
    data = a.data.copy()
    data[np.flatnonzero(a.indices != a.expanded_rows())[0]] = -0.0
    a2 = CsrMatrix(a.indptr, a.indices, data, a.shape)
    assert GilbertPeierlsLU(ordering="nd").factorize(a).replay(a2) is None


@pytest.mark.parametrize("scale", [0.0, 1e-18])
def test_near_singular_raises_the_fresh_error(scale):
    a = nonsymmetric(16, 9, density=0.3)
    dense = a.todense()
    dense[:, 5] *= scale
    # same pattern: vanished entries stay stored as explicit zeros
    a2 = CsrMatrix(
        a.indptr, a.indices, dense[a.expanded_rows(), a.indices], a.shape
    )
    spec = LocalSolverSpec(kind="superlu", ordering="nd")
    local = spec.build(a)
    with pytest.raises(PivotBreakdownError) as fresh:
        spec.build(a2)
    with pytest.raises(PivotBreakdownError) as refactored:
        local.refactor(a2)
    assert str(refactored.value) == str(fresh.value)
    assert refactored.value.index == fresh.value.index


def test_pattern_drift_raises():
    a, other = nonsymmetric(20, 1), nonsymmetric(20, 2)
    warm = GilbertPeierlsLU(ordering="nd").factorize(a)
    with pytest.raises(PatternChangedError, match="superlu") as numeric_err:
        GilbertPeierlsLU(ordering="nd").factorize(a).numeric(other)
    with pytest.raises(PatternChangedError, match="superlu") as replay_err:
        warm.replay(other)
    assert str(replay_err.value) == str(numeric_err.value)
    local = LocalSolverSpec(kind="superlu", ordering="nd").build(a)
    with pytest.raises(PatternChangedError, match="superlu"):
        local.refactor(other)


def test_workspace_cap_declines(monkeypatch):
    a = nonsymmetric(20, 1)
    warm = GilbertPeierlsLU(ordering="nd").factorize(a)
    monkeypatch.setattr(gp_lu, "REPLAY_WORKSPACE_BYTES", 8 * 20 * 20 - 1)
    assert warm.replay(a) is None
    local = LocalSolverSpec(kind="superlu", ordering="nd").build(a)
    _, pivots = refactor_traced(local, a)
    assert pivots == "rebuilt"


def test_pivot_record_drops_the_values():
    a = nonsymmetric(20, 1)
    warm = GilbertPeierlsLU(ordering="nd").factorize(a)
    rec = warm.pivot_record()
    assert rec._l[2] is None and rec._u[2] is None
    assert rec.l_csr is None and rec.u_csr is None
    assert warm._l[2] is not None and warm.l_csr is not None
    v = np.ones(20)
    assert np.array_equal(rec.solve(v), warm.solve(v))


def factor_spans(span):
    """The ``factor/*`` spans under ``span``: name, annotations, priced work."""
    return [
        (s.name, s.annotations, [(k.name, k.flops, k.bytes) for k in s.profile])
        for s in span.find("factor/")
    ]


def test_refactorize_replays_in_place():
    a = nonsymmetric(30, 3)
    a2 = perturbed(a, 4, 1e-6)
    solver = GilbertPeierlsLU(ordering="nd").factorize(a)
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("reuse/extension_refactor") as sp:
        assert solver.refactorize(a2) is solver
    assert sp.annotations["pivots"] == "replayed"
    cold = Tracer()
    with use_tracer(cold), cold.span("setup") as cold_sp:
        fresh = GilbertPeierlsLU(ordering="nd").factorize(a2)
    assert_same_factors(solver, fresh)
    # the trace prices a full factorization, as the modeled clock does
    assert factor_spans(sp) == factor_spans(cold_sp)


def test_superlu_extension_refactor_replays():
    """The coarse extension's cached superlu solvers replay their pivots.

    Through ``energy_minimizing_extension``'s solver cache a same-pattern
    refactor reaches ``GilbertPeierlsLU.refactorize``, replays, and gives
    the basis of a cold build bit for bit.
    """
    from repro.dd import Decomposition, GDSWPreconditioner, SchwarzConfig
    from repro.fem import laplace_3d

    problem = laplace_3d(4, 4, 4)
    a = problem.a
    d = 1.0 + 0.1 * np.random.default_rng(0).random(a.n_rows)
    a2 = CsrMatrix(
        a.indptr, a.indices, d[a.expanded_rows()] * a.data * d[a.indices], a.shape
    )
    config = SchwarzConfig(extension=LocalSolverSpec(kind="superlu"))
    nullspace = np.ones((a.n_rows, 1))
    dec = Decomposition.from_box_partition(problem, 2, 2, 1)
    warm = GDSWPreconditioner(dec, nullspace, config)
    tracer = Tracer()
    with use_tracer(tracer):
        warm.refactor(a2)
    (span,) = tracer.root.find("reuse/extension_refactor")
    assert span.annotations["pivots"] == "replayed"
    cold = GDSWPreconditioner(dec.with_values(a2), nullspace, config)
    for field in ("indptr", "indices", "data"):
        assert getattr(warm.phi, field).tobytes() == getattr(cold.phi, field).tobytes()
