"""The cold SuperLU factorization against its left-looking reference.

``GilbertPeierlsLU.numeric`` runs one right-looking pass and chooses
each pivot online; ``_numeric_reference`` is the heap-ordered,
column-at-a-time loop it replaced.  On every input both must give the
same ``L``, ``U``, ``row_perm``, ``flops``, CSR forms, profile and
``stages.apply`` bit for bit, and raise the same
``PivotBreakdownError`` on a singular matrix.  Where the pass cannot
guarantee that (an exact tie the diagonal does not win, a ``-0.0`` in
``a``, a workspace over the cap, a singular column) it hands the matrix
to the reference, and the tests check that it does.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.direct.gp_lu as gp_lu
from repro.direct import GilbertPeierlsLU
from repro.obs import Tracer, use_tracer
from repro.resilience.detect import PivotBreakdownError
from repro.sparse import CsrMatrix
from tests.conftest import solver_constants
from tests.direct.test_gp_replay import (
    assert_same_factors,
    dense_csr,
    nonsymmetric,
    perturbed,
)


def factor_both(a, ordering="natural"):
    """``(numeric(a), _numeric_reference(a), declined)`` from one
    symbolic phase; ``declined`` is True when ``numeric`` handed ``a``
    to the reference."""
    sym = GilbertPeierlsLU(ordering=ordering).symbolic(a)
    handed = []
    reference = GilbertPeierlsLU._numeric_reference

    def spy(self, m):
        handed.append(m)
        return reference(self, m)

    with mock.patch.object(GilbertPeierlsLU, "_numeric_reference", spy):
        fast = copy.copy(sym).numeric(a)
    return fast, copy.copy(sym)._numeric_reference(a), bool(handed)


def assert_same(a, ordering="natural", declines=False):
    fast, ref, declined = factor_both(a, ordering)
    assert declined == declines
    assert_same_factors(fast, ref)
    return fast


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    density=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    diag_scale=st.sampled_from([0.0, 0.3, 3.0]),
    ordering=st.sampled_from(["nd", "natural"]),
    pivot_tol=st.sampled_from([1.0, 0.5, 0.1]),
)
def test_numeric_equals_reference(n, seed, density, diag_scale, ordering, pivot_tol):
    # continuous random values never tie, so the pass never declines
    # (``+ 0.0`` turns the ``-0.0`` of a zero diagonal into ``+0.0``)
    a = nonsymmetric(n, seed, density, diag_scale)
    a = CsrMatrix(a.indptr, a.indices, a.data + 0.0, a.shape)
    with solver_constants(pivot_tol=pivot_tol):
        assert_same(a, ordering)


def test_off_diagonal_pivots():
    fast = assert_same(nonsymmetric(30, 3), "nd")
    assert not np.array_equal(fast.row_perm, np.arange(30))


def test_laplace_keeps_the_diagonal(small_laplace):
    fast = assert_same(small_laplace.a, "nd")
    assert np.array_equal(fast.row_perm, np.arange(small_laplace.a.n_rows))


def test_exact_tie_off_the_diagonal_declines():
    # column 0: the diagonal is below threshold and rows 1 and 2 tie
    m = np.array([[0.1, 1.0, 2.0], [3.0, 5.0, 1.0], [3.0, 1.0, 6.0]])
    assert_same(dense_csr(m), declines=True)
    # a tie in a later column, after an update: rows 2 and 3 of
    # column 1 both reach 3.0
    m = np.array(
        [
            [4.0, 1.0, 0.0, 1.0],
            [0.0, 0.5, 2.0, 0.0],
            [2.0, 3.5, 1.0, 0.0],
            [-2.0, 2.5, 0.0, 3.0],
        ]
    )
    assert_same(dense_csr(m), declines=True)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tie_with_the_diagonal_keeps_it(sign):
    # |a_00| equals the column max: the threshold rule keeps the diagonal
    fast = assert_same(dense_csr(np.array([[3.0, 1.0], [sign * 3.0, 4.0]])))
    assert fast.row_perm.tolist() == [0, 1]
    m = np.array([[-2.0, 1.0, 0.0], [2.0, 5.0, 1.0], [-2.0, 1.0, 6.0]])
    assert_same(dense_csr(m))


def test_negative_zero_declines():
    a = nonsymmetric(12, 5, density=0.4)
    data = a.data.copy()
    data[np.flatnonzero(a.indices != a.expanded_rows())[0]] = -0.0
    assert_same(CsrMatrix(a.indptr, a.indices, data, a.shape), declines=True)


@pytest.mark.parametrize(
    "m",
    [
        np.array([[2.5]]),
        np.diag([3.0, -1.0, 0.5, 7.0]),
        np.random.default_rng(4).uniform(-1.0, 1.0, (9, 9)),
    ],
    ids=["1x1", "diagonal", "dense"],
)
def test_small_shapes(m):
    assert_same(dense_csr(m))
    assert_same(dense_csr(m), "nd")


def test_explicit_zeros_stay_in_the_pattern():
    a = nonsymmetric(20, 6, density=0.3)
    data = a.data.copy()
    data[::3] = 0.0
    data[a.indices == a.expanded_rows()] += 5.0  # keep it nonsingular
    fast = assert_same(CsrMatrix(a.indptr, a.indices, data, a.shape), "nd")
    assert (fast._u[2] == 0.0).any()


def test_overflow_declines():
    # the update of column 1 overflows to inf, the pivot the reference takes
    a = dense_csr(np.array([[1e300, 1.7e308], [-1e300, 1.7e308]]))
    with np.errstate(over="ignore"):
        fast, ref, declined = factor_both(a)
    assert declined
    assert np.isinf(ref._u[2]).any()
    for mine, theirs in zip(fast._l + fast._u, ref._l + ref._u):
        assert np.array_equal(mine, theirs)
    assert fast.flops == ref.flops


def test_workspace_cap_declines(monkeypatch):
    a = nonsymmetric(20, 1)
    monkeypatch.setattr(gp_lu, "REPLAY_WORKSPACE_BYTES", 8 * 20 * 20 - 1)
    assert_same(a, "nd", declines=True)
    monkeypatch.setattr(gp_lu, "REPLAY_WORKSPACE_BYTES", 8 * 20 * 20)
    assert_same(a, "nd")


def raised(run, a, ordering):
    sym = GilbertPeierlsLU(ordering=ordering).symbolic(a)
    with pytest.raises(PivotBreakdownError) as err:
        getattr(copy.copy(sym), run)(a)
    return str(err.value), err.value.index, err.value.value


@pytest.mark.parametrize("scale", [0.0, 1e-18])
@pytest.mark.parametrize("ordering", ["nd", "natural"])
def test_numerically_singular_raises_the_reference_error(scale, ordering):
    a = nonsymmetric(16, 9, density=0.3)
    dense = a.todense()
    dense[:, 5] *= scale
    # same pattern: vanished entries stay stored as explicit zeros
    a = CsrMatrix(a.indptr, a.indices, dense[a.expanded_rows(), a.indices], a.shape)
    assert raised("numeric", a, ordering) == raised("_numeric_reference", a, ordering)


def test_structurally_singular_raises_the_reference_error():
    # rows 1 and 2 only reach column 2: column 1 runs out of candidates
    rows = np.array([0, 0, 0, 1, 2])
    cols = np.array([0, 1, 2, 2, 2])
    a = CsrMatrix.from_coo(rows, cols, np.array([1.0, 2.0, 3.0, 4.0, 5.0]), (3, 3))
    got = raised("numeric", a, "natural")
    assert got == raised("_numeric_reference", a, "natural")
    assert got[1] == 1 and got[2] is None


def test_refactorize_after_cold_build_replays():
    a = nonsymmetric(30, 3)
    solver = GilbertPeierlsLU(ordering="nd").factorize(a)
    tracer = Tracer()
    with use_tracer(tracer), tracer.span("reuse/local_refactor") as sp:
        solver.refactorize(perturbed(a, 4, 1e-6))
    assert sp.annotations["pivots"] == "replayed"
