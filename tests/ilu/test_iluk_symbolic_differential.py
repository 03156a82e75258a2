"""Differential tests of the vectorised ILU symbolic kernels.

``iluk_symbolic`` (level-by-level masked products), ``_scatter_to_pattern``
(one keyed gather) and the FastILU ``_sweep_plan`` (in-pattern products
only) against the seed loops they replaced, which stay in the package as
``*_reference`` twins.  Inputs are generated CSR matrices: empty rows,
missing diagonals, nonsymmetric patterns, 1x1, dense rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilu.fastilu import FastIlu, _sweep_plan_reference
from repro.ilu.iluk import (
    _iluk_symbolic_reference,
    _scatter_to_pattern,
    _scatter_to_pattern_reference,
    iluk_symbolic,
)
from repro.sparse import CsrMatrix


def pattern_matrix(n, seed, density, diagonal, dense_row):
    """A square CSR with a seeded pattern.

    ``diagonal`` in ``none`` / ``some`` / ``all``; ``dense_row`` fills
    one row and one column.  Rows may be empty, the pattern is
    nonsymmetric.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, {"none": False, "all": True}.get(diagonal, rng.random(n) < 0.5))
    if dense_row:
        mask[rng.integers(n), :] = True
        mask[:, rng.integers(n)] = True
    rows, cols = np.nonzero(mask)
    return CsrMatrix.from_coo(rows, cols, rng.uniform(0.5, 1.5, rows.size), (n, n))


matrices = st.builds(
    pattern_matrix,
    n=st.integers(1, 18),
    seed=st.integers(0, 10_000),
    density=st.sampled_from([0.0, 0.08, 0.2, 0.5]),
    diagonal=st.sampled_from(["none", "some", "all"]),
    dense_row=st.booleans(),
)


def assert_same_pattern(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(a=matrices, level=st.integers(0, 5))
def test_iluk_symbolic_equals_reference(a, level):
    assert_same_pattern(iluk_symbolic(a, level), _iluk_symbolic_reference(a, level))


def test_empty_level_does_not_end_the_recursion():
    """Level 3 from two level-1 entries although level 2 is empty.

    Level 1 = products of level-0 pairs, level 2 = products of a level-0
    and a level-1 entry, level 3 also = products of two level-1 entries.
    Here pivot 0 fills (3,2) and pivot 1 fills (2,4), both at level 1;
    they meet at pivot 2 and give (3,4) at level 1 + 1 + 1 = 3, while
    nothing has level 2 -- so a round that adds nothing must not stop
    the rounds.
    """
    n = 5
    entries = [(3, 0), (0, 2), (2, 1), (1, 4)]
    rows, cols = zip(*entries)
    a = CsrMatrix.from_coo(
        np.array(rows), np.array(cols), np.ones(len(entries)), (n, n)
    )

    def entries_at(level):
        ptr, ind = iluk_symbolic(a, level)
        return {(i, int(j)) for i in range(n) for j in ind[ptr[i] : ptr[i + 1]]}

    assert entries_at(1) - entries_at(0) == {(3, 2), (2, 4)}
    assert entries_at(2) == entries_at(1)  # level 2 is empty
    assert entries_at(3) - entries_at(2) == {(3, 4)}
    for level in range(5):
        assert_same_pattern(
            iluk_symbolic(a, level), _iluk_symbolic_reference(a, level)
        )


@pytest.mark.parametrize("fn", [iluk_symbolic, _iluk_symbolic_reference])
def test_iluk_symbolic_rejects_bad_input(fn):
    with pytest.raises(ValueError, match="square"):
        fn(CsrMatrix.from_dense(np.ones((2, 3))), 0)
    with pytest.raises(ValueError, match="non-negative"):
        fn(CsrMatrix.from_dense(np.eye(2)), -1)


@settings(max_examples=100, deadline=None)
@given(a=matrices, other=matrices, level=st.integers(0, 2))
def test_scatter_to_pattern_equals_reference(a, other, level):
    """Also over a pattern that is *not* ``a``'s: entries of ``a``
    outside the pattern are dropped, pattern slots ``a`` lacks stay 0."""
    for src in (a, other):
        if src.n_rows != a.n_rows:
            continue
        pptr, pind = iluk_symbolic(src, level)
        got = _scatter_to_pattern(a, pptr, pind)
        want = _scatter_to_pattern_reference(a, pptr, pind)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def reference_plan(sym):
    """The seed's full-expansion plan over a FastILU record's pattern."""
    n = sym.pptr.size - 1
    return _sweep_plan_reference(
        n, sym.rows_all[sym.lower_idx], sym.l_indices, sym.u_indptr,
        sym.u_indices, sym.rows_all * np.int64(n) + sym.pind,
    )


def assert_holds_reference_plan(sym):
    *plan, expansion_pairs = reference_plan(sym)
    for name, want in zip(("gather_l", "gather_u", "seg_starts", "seg_targets"), plan):
        np.testing.assert_array_equal(getattr(sym, name), want)
    assert sym.masked_pairs <= sym.expansion_pairs == expansion_pairs


@settings(max_examples=100, deadline=None)
@given(a=matrices, level=st.integers(0, 3))
def test_sweep_plan_equals_reference(a, level):
    """Filtering before the sort keeps exactly the reference's kept
    products, in the reference's order."""
    assert_holds_reference_plan(FastIlu(level=level).symbolic(a).symbolic_record)


def test_fastilu_record_holds_the_reference_plan(small_laplace):
    """On a real block the record's plan is the seed's full-expansion
    plan minus its out-of-pattern segments (so every sweep, and the
    residual functional, sums the same numbers in the same order), and
    the modeled symbolic cost is still priced on the full expansion."""
    a = small_laplace.a
    f = FastIlu(level=1, sweeps=3).symbolic(a).numeric(a)
    sym = f.symbolic_record
    assert_holds_reference_plan(sym)
    assert sym.masked_pairs < sym.expansion_pairs
    (kernel,) = f.symbolic_profile
    assert kernel.bytes == float(sym.pind.size * 24 + sym.expansion_pairs * 16)
    unswept = FastIlu(level=1, sweeps=0).symbolic(a).numeric(a)
    assert f.residual_norm(a) < unswept.residual_norm(a)
