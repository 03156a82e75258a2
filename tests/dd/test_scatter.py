"""Bit-identity of the bincount scatter in OneLevelSchwarz.apply.

The subdomain prolongation used to be a per-rank ``np.add.at`` loop;
it is now one vectorized ``np.bincount`` over a precomputed
concatenated index plan.  ``np.bincount`` accumulates its weights
sequentially in input order, so the rank-major concatenation reproduces
the old addition order -- and therefore the old floating-point result
-- bit for bit.  This test pins that equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.decomposition import Decomposition
from repro.dd.local_solvers import LocalSolverSpec
from repro.dd.schwarz import OneLevelSchwarz
from tests.conftest import random_spd


@pytest.fixture(scope="module")
def one_level():
    from repro.fem import elasticity_3d

    p = elasticity_3d(4, 4, 4)
    dec = Decomposition.from_box_partition(p, 2, 2, 1)
    return p, OneLevelSchwarz(dec, LocalSolverSpec(kind="tacho", ordering="nd"))


def _reference_apply(op: OneLevelSchwarz, v: np.ndarray) -> np.ndarray:
    """The pre-vectorization scatter: sequential per-rank np.add.at."""
    out = np.zeros_like(np.asarray(v, dtype=np.float64))
    for rank, dofs in enumerate(op.dof_sets):
        np.add.at(out, dofs, op.locals[rank].apply(v[dofs]))
    return out


def test_apply_matches_add_at_bit_for_bit(one_level):
    p, op = one_level
    rng = np.random.default_rng(42)
    for _ in range(5):
        v = rng.standard_normal(p.a.n_rows)
        assert np.array_equal(op.apply(v), _reference_apply(op, v))


def test_scatter_plan_matches_dof_sets(one_level):
    _, op = one_level
    assert np.array_equal(op._scatter_dofs, np.concatenate(op.dof_sets))


def test_apply_on_algebraic_partition():
    a = random_spd(60, seed=3, density=0.1)
    dec = Decomposition.algebraic(a, n_parts=3)
    op = OneLevelSchwarz(dec, LocalSolverSpec(kind="tacho", ordering="natural"))
    rng = np.random.default_rng(11)
    v = rng.standard_normal(60)
    assert np.array_equal(op.apply(v), _reference_apply(op, v))
