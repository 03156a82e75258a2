"""Differential tests of the multifrontal numeric phase on its assembly plan.

``MultifrontalCholesky.numeric`` (gather-assign of ``a.data`` into each
front, flat extend-adds, blocks written into the class stacks) against
``_numeric_reference`` (permute + transpose, a column scatter loop and
``np.ix_`` extend-adds, ``vstack`` + ``np.stack``), which stays in the
package as its executable specification.  Everything is compared bit
for bit: the factor blocks, the priced profiles and the output of
``stages.apply``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dd.local_solvers import LocalSolverSpec
from repro.direct import MultifrontalCholesky
from repro.resilience.detect import PivotBreakdownError
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.reuse.fingerprint import PatternChangedError
from repro.sparse import CsrMatrix
from tests.conftest import solver_constants


def spd_matrix(n, seed, shape, zeros, density=0.25):
    """A seeded, strictly diagonally dominant (so SPD) CSR matrix.

    ``shape``: ``random`` (symmetric random pattern), ``diagonal`` (no
    off-diagonal entries, so no assembly-tree children), ``forest``
    (three decoupled blocks, so several roots) or ``dense``.  ``zeros``
    stores a share of the off-diagonal entries as explicit zeros.
    """
    rng = np.random.default_rng(seed)
    if shape == "dense":
        mask = np.ones((n, n), dtype=bool)
    elif shape == "diagonal":
        mask = np.zeros((n, n), dtype=bool)
    else:
        mask = rng.random((n, n)) < density
        if shape == "forest":
            block = rng.integers(0, 3, n)
            mask &= block[:, None] == block[None, :]
    mask = np.triu(mask, 1)
    vals = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    if zeros:
        vals[mask & (rng.random((n, n)) < 0.3)] = 0.0
    mask = mask | mask.T
    vals = vals + vals.T
    np.fill_diagonal(mask, True)
    np.fill_diagonal(vals, np.abs(vals).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    rows, cols = np.nonzero(mask)
    return CsrMatrix.from_coo(rows, cols, vals[rows, cols], (n, n))


def new_values(a, seed):
    """``D A D`` with a seeded positive diagonal: same pattern, still SPD."""
    d = 1.0 + 0.5 * np.random.default_rng(seed).random(a.n_rows)
    data = a.data * d[a.expanded_rows()] * d[a.indices]
    return CsrMatrix(a.indptr.copy(), a.indices.copy(), data, a.shape)


def factor_pair(a, max_supernode, ordering="nd"):
    """The same symbolic record, factored by both numeric phases."""
    with solver_constants(max_supernode=max_supernode):
        new = MultifrontalCholesky(ordering).symbolic(a)
        ref = MultifrontalCholesky(ordering).symbolic(a)
    return new.numeric(a), ref._numeric_reference(a)


def kernels(profile):
    return [dataclasses.astuple(k) for k in profile]


def assert_bit_identical(new, ref, seed=0):
    got, want = new.factor, ref.factor
    assert len(got.blocks) == len(want.blocks)
    for g, w in zip(got.blocks, want.blocks):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert kernels(new.numeric_profile) == kernels(ref.numeric_profile)
    assert kernels(new.solve_profile) == kernels(ref.solve_profile)
    rng = np.random.default_rng(seed)
    n = new.perm.size
    for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        assert new.stages.apply(v).tobytes() == ref.stages.apply(v).tobytes()


cases = st.fixed_dictionaries(
    {
        "n": st.integers(1, 40),
        "seed": st.integers(0, 10_000),
        "shape": st.sampled_from(["random", "diagonal", "forest", "dense"]),
        "zeros": st.booleans(),
    }
)
widths = st.sampled_from([1, 4, 64])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=cases, max_supernode=widths, ordering=st.sampled_from(["nd", "natural"]))
def test_numeric_matches_reference(case, max_supernode, ordering):
    a = spd_matrix(**case)
    new, ref = factor_pair(a, max_supernode, ordering)
    assert_bit_identical(new, ref, case["seed"])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=cases, max_supernode=widths)
def test_refactorize_matches_reference(case, max_supernode):
    a = spd_matrix(**case)
    a2 = new_values(a, case["seed"] + 1)
    with solver_constants(max_supernode=max_supernode):
        new = MultifrontalCholesky("nd").factorize(a)
        ref = MultifrontalCholesky("nd").symbolic(a)
    new.refactorize(a2)
    ref._numeric_reference(a2)
    assert_bit_identical(new, ref, case["seed"])


@pytest.mark.parametrize("max_supernode", [1, 64])
@pytest.mark.parametrize(
    "shape, n", [("random", 1), ("diagonal", 12), ("forest", 30), ("dense", 24)]
)
def test_named_shapes(shape, n, max_supernode):
    """The corner cases by name: 1x1, no children, several roots, dense."""
    a = spd_matrix(n, seed=3, shape=shape, zeros=True)
    new, ref = factor_pair(a, max_supernode)
    record = new.symbolic_record
    if shape == "diagonal":
        assert not any(record.children)
    if shape == "forest":
        assert int(np.sum(record.sn_parent < 0)) > 1
    assert_bit_identical(new, ref)


def test_explicit_zeros_are_assembled():
    a = spd_matrix(30, seed=5, shape="random", zeros=True, density=0.4)
    assert np.any(a.data == 0.0)
    new, ref = factor_pair(a, 64)
    assert new.symbolic_record.scatter_src.size == int(
        np.sum(new.perm.argsort()[a.expanded_rows()] >= new.perm.argsort()[a.indices])
    )
    assert_bit_identical(new, ref)


def test_duplicate_entries_are_summed_in_csr_order():
    # a raw CSR may store one (i, j) several times; the reference's
    # permute coalesces them, so the plan must sum them the same way
    a = spd_matrix(25, seed=7, shape="random", zeros=False, density=0.4)
    rows = a.expanded_rows()
    twice = np.flatnonzero(rows != a.indices)[::3]
    order = np.argsort(np.concatenate([np.arange(a.nnz), twice]), kind="stable")
    indices = np.concatenate([a.indices, a.indices[twice]])[order]
    data = np.concatenate([a.data, a.data[twice] / 3.0])[order]
    indptr = a.indptr + np.concatenate(
        [[0], np.cumsum(np.bincount(rows[twice], minlength=a.n_rows))]
    )
    dup = CsrMatrix(indptr, indices, data, a.shape)
    new, ref = factor_pair(dup, 64)
    assert new.symbolic_record.scatter_seg.size < new.symbolic_record.scatter_src.size
    assert_bit_identical(new, ref)


def test_indefinite_front_names_the_same_supernode():
    a = spd_matrix(30, seed=9, shape="random", zeros=False)
    bad = a.data.copy()
    diag = np.flatnonzero(a.expanded_rows() == a.indices)
    bad[diag[17]] = -5.0
    a_bad = CsrMatrix(a.indptr, a.indices, bad, a.shape)
    errors = []
    for run in ("numeric", "_numeric_reference"):
        solver = MultifrontalCholesky("nd").symbolic(a_bad)
        with pytest.raises(PivotBreakdownError) as info:
            getattr(solver, run)(a_bad)
        errors.append(info.value)
    assert str(errors[0]) == str(errors[1])
    assert "supernode" in str(errors[0]) and "columns" in str(errors[0])
    assert errors[0].index == errors[1].index


def test_changed_pattern_still_raises():
    a = spd_matrix(20, seed=1, shape="random", zeros=False)
    other = spd_matrix(20, seed=2, shape="random", zeros=False)
    solver = MultifrontalCholesky("nd").factorize(a)
    with pytest.raises(PatternChangedError):
        solver.refactorize(other)


def test_kept_factored_local_applies_its_old_factor():
    a = spd_matrix(40, seed=4, shape="random", zeros=False)
    a2 = new_values(a, 8)
    v = np.random.default_rng(0).standard_normal(a.n_rows)
    with use_artifact_cache(ArtifactCache()):
        old = LocalSolverSpec(kind="tacho").build(a)
        before = old.apply(v).tobytes()
        new = old.refactor(a2)
        fresh = LocalSolverSpec(kind="tacho").build(a2)
        assert old.apply(v).tobytes() == before
        assert new.apply(v).tobytes() == fresh.apply(v).tobytes()
        assert new.apply(v).tobytes() != before


def test_plan_arrays_of_the_shared_record_are_read_only():
    a = spd_matrix(40, seed=6, shape="random", zeros=False)
    with use_artifact_cache(ArtifactCache()):
        first = MultifrontalCholesky("nd").factorize(a)
        second = MultifrontalCholesky("nd").factorize(new_values(a, 2))
        record = first.symbolic_record
        assert second.symbolic_record is record
        plan = {
            name: getattr(record, name)
            for name in (
                "scatter_src", "scatter_seg", "scatter_dst", "scatter_ptr",
                "extend_pos", "extend_ptr", "stack_class", "stack_slot",
                "iperm",
            )
        }
        for name, arr in plan.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0
        for name in ("scatter_src", "scatter_seg", "scatter_dst", "extend_pos"):
            assert plan[name].dtype == np.int32, name
        assert record.plan_bytes == sum(arr.nbytes for name, arr in plan.items()
                                        if name != "iperm")
