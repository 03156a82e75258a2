"""The merged local solve of ``OneLevelSchwarz``: contracts around the plan.

``tests/dd/test_scatter.py`` pins the merged apply against the per-rank
``loc.apply`` loop for the default configuration.  This module covers
what surrounds it: every solver kind, block right-hand sides, plan
invalidation when ``locals`` entries are replaced in place, mixed solver
kinds after a ladder escalation, restricted weights and the resilience
hooks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.dd.decomposition import Decomposition
from repro.dd.local_solvers import LocalSolverSpec
from repro.dd.precision import HalfPrecisionOperator
from repro.dd.schwarz import OneLevelSchwarz
from repro.dd.two_level import GDSWPreconditioner
from repro.fem import constant_nullspace, elasticity_3d, laplace_3d, rigid_body_modes
from repro.krylov.block import block_cg, block_gmres
from repro.obs import Tracer, use_tracer
from repro.resilience.context import use_engine
from repro.resilience.engine import ResilienceConfig, ResilienceEngine
from repro.serve.guard import OneLevelOperator

SPECS = {
    "superlu": LocalSolverSpec(kind="superlu", ordering="nd"),
    "superlu-gpu": LocalSolverSpec(kind="superlu", ordering="nd", gpu_solve=True),
    "tacho": LocalSolverSpec(kind="tacho", ordering="nd"),
    "iluk": LocalSolverSpec(kind="iluk", ordering="natural"),
    "fastilu": LocalSolverSpec(kind="fastilu", ordering="nd"),
}


@pytest.fixture(scope="module")
def laplace():
    p = laplace_3d(5)
    return p, Decomposition.from_box_partition(p, 2, 2, 1)


def reference_apply(op, v, eng=None):
    """The per-rank loop the merged apply replaced (hooks included)."""
    out = np.zeros(v.shape[0])
    for rank, dofs in enumerate(op.dof_sets):
        v_i = v[dofs]
        if eng is not None:
            v_i = eng.filter_restrict(rank, v_i)
        x_i = op.locals[rank].apply(v_i)
        if eng is not None:
            x_i = eng.check_local_solution(rank, x_i)
        if op._weights is not None:
            x_i = x_i * op._weights[rank]
        np.add.at(out, dofs, x_i)
    return out


def column_loop(apply, v):
    return np.stack([apply(v[:, j].copy()) for j in range(v.shape[1])], axis=1)


# ----------------------------------------------------------------------
# every kind: merged == per rank, block == column loop, both bitwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_merged_and_block_apply_bitwise(laplace, kind, rng):
    p, dec = laplace
    op = OneLevelSchwarz(dec, SPECS[kind])
    assert len(op._plan.groups) == 1
    v = rng.standard_normal(p.a.n_rows)
    assert np.array_equal(op.apply(v), reference_apply(op, v))
    block = rng.standard_normal((p.a.n_rows, 3))
    out = op.apply(block)
    assert out.shape == block.shape and out.dtype == np.float64
    assert np.array_equal(out, column_loop(op.apply, block))


@pytest.mark.parametrize("kind", ["superlu", "tacho", "iluk", "fastilu"])
def test_two_level_block_apply_bitwise(laplace, kind, rng):
    p, dec = laplace
    m = GDSWPreconditioner(
        dec, constant_nullspace(p.a.n_rows), local_spec=SPECS[kind]
    )
    assert m.phi is not None
    block = rng.standard_normal((p.a.n_rows, 4))
    assert np.array_equal(m.apply(block), column_loop(m.apply, block))
    for wrapped in (
        HalfPrecisionOperator(m),
        OneLevelOperator(m),
        HalfPrecisionOperator(OneLevelOperator(m)),
    ):
        assert np.array_equal(
            wrapped.apply(block), column_loop(wrapped.apply, block)
        )


def test_block_apply_on_elasticity_with_multilevel_coarse(rng):
    """Rows of >= 8 entries, six null-space vectors, an inexact coarse solve."""
    p = elasticity_3d(4)
    dec = Decomposition.from_box_partition(p, 2, 2, 2)
    m = GDSWPreconditioner(
        dec,
        rigid_body_modes(p.coordinates),
        coarse_solver="multilevel",
        multilevel_parts=2,
    )
    block = rng.standard_normal((p.a.n_rows, 2))
    assert np.array_equal(m.apply(block), column_loop(m.apply, block))


def test_block_apply_counts_k_times_p_local_solves(laplace, rng):
    p, dec = laplace
    op = OneLevelSchwarz(dec, SPECS["tacho"])
    tracer = Tracer()
    with use_tracer(tracer):
        op.apply(rng.standard_normal(p.a.n_rows))
        op.apply(rng.standard_normal((p.a.n_rows, 3)))
    assert tracer.total("local_solves") == (1 + 3) * dec.n_subdomains


def test_block_krylov_applies_the_preconditioner_once_per_step(laplace, rng):
    """``M.apply`` sees one ``(n, w)`` block per lockstep step, not w vectors."""
    p, dec = laplace
    m = GDSWPreconditioner(dec, constant_nullspace(p.a.n_rows))
    shapes = []
    inner = m.apply
    m.apply = lambda v: shapes.append(np.shape(v)) or inner(v)
    b = rng.standard_normal((p.a.n_rows, 3))
    res = block_gmres(p.a, b, preconditioner=m, rtol=1e-8)
    assert res.all_converged
    assert all(len(s) == 2 for s in shapes)
    assert len(shapes) == max(res.iterations)
    shapes.clear()
    res = block_cg(p.a, b, preconditioner=m, rtol=1e-8)
    assert res.all_converged
    assert all(len(s) == 2 for s in shapes)
    assert len(shapes) <= max(res.iterations) + 1


def test_plain_callable_preconditioner_keeps_the_column_loop(laplace, rng):
    p, dec = laplace
    m = GDSWPreconditioner(dec, constant_nullspace(p.a.n_rows))
    seen = []

    def as_function(v):
        seen.append(np.ndim(v))
        return m.apply(v)

    b = rng.standard_normal((p.a.n_rows, 2))
    by_function = block_gmres(p.a, b, preconditioner=as_function, rtol=1e-8)
    by_object = block_gmres(p.a, b, preconditioner=m, rtol=1e-8)
    assert set(seen) == {1}
    assert np.array_equal(by_function.x, by_object.x)
    assert by_function.residual_norms == by_object.residual_norms


# ----------------------------------------------------------------------
# plan invalidation: keyed on the identity of the locals entries
# ----------------------------------------------------------------------
def test_plan_follows_refactor(laplace, rng):
    p, dec = laplace
    op = OneLevelSchwarz(dec, SPECS["tacho"])
    plan = op._plan
    d = 1.0 + 0.1 * rng.random(p.a.n_rows)
    a_new = p.a.scale_rows(d).scale_cols(d)
    op.refactor(dec.with_values(a_new))
    # rebuilt eagerly: the refactor pays for it, not the next apply
    assert op._plan is not plan and op._plan.built_from(op.locals)
    v = rng.standard_normal(p.a.n_rows)
    assert np.array_equal(op.apply(v), reference_apply(op, v))
    cold = OneLevelSchwarz(dec.with_values(a_new), SPECS["tacho"])
    assert np.array_equal(op.apply(v), cold.apply(v))


def test_plan_follows_in_place_replacement_with_another_kind(laplace, rng):
    """A respawn repair or ladder escalation assigns ``locals[rank]``."""
    p, dec = laplace
    op = OneLevelSchwarz(dec, SPECS["tacho"])
    v = rng.standard_normal(p.a.n_rows)
    before = op.apply(v)
    op.locals[1] = op.locals[1].refactor(op.matrices[1])  # same kind
    assert not op._plan.built_from(op.locals)
    assert np.array_equal(op.apply(v), before)
    assert op._plan.built_from(op.locals) and len(op._plan.groups) == 1

    op.locals[2] = SPECS["superlu"].build(op.matrices[2])
    op.locals[0] = SPECS["fastilu"].build(op.matrices[0])
    out = op.apply(v)
    assert len(op._plan.groups) == 3
    assert np.array_equal(out, reference_apply(op, v))
    block = rng.standard_normal((p.a.n_rows, 2))
    assert np.array_equal(op.apply(block), column_loop(op.apply, block))


def test_plan_follows_engine_rebuild_rank(laplace, rng):
    p, dec = laplace
    eng = ResilienceEngine(ResilienceConfig())
    with use_engine(eng):
        op = OneLevelSchwarz(dec, SPECS["tacho"])
        v = rng.standard_normal(p.a.n_rows)
        op.apply(v)
        # the ladder moved rank 3 to the pivoting fallback mid-solve
        eng.states[3].spec = replace(eng.states[3].spec, kind="superlu")
        eng.rebuild_rank(3)
        assert not op._plan.built_from(op.locals)
        out = op.apply(v)
    assert len(op._plan.groups) == 2
    assert np.array_equal(out, reference_apply(op, v))


# ----------------------------------------------------------------------
# weights and resilience hooks through the merged path
# ----------------------------------------------------------------------
class RecordingEngine:
    """Stands in for the resilience engine at apply time."""

    def __init__(self):
        self.restricted, self.solved = [], []

    def filter_restrict(self, rank, v):
        self.restricted.append((rank, v.copy()))
        return 2.0 * v if rank == 1 else v

    def check_local_solution(self, rank, x):
        self.solved.append((rank, x.copy()))
        return np.zeros_like(x) if rank == 2 else x


@pytest.mark.parametrize("restricted", [False, True])
def test_hooks_see_every_rank_slice_in_dof_order(laplace, restricted, rng):
    p, dec = laplace
    op = OneLevelSchwarz(dec, SPECS["tacho"], restricted=restricted)
    v = rng.standard_normal(p.a.n_rows)
    eng = RecordingEngine()
    with use_engine(eng):
        out = op.apply(v)
    assert [r for r, _ in eng.restricted] == list(range(dec.n_subdomains))
    assert [r for r, _ in eng.solved] == list(range(dec.n_subdomains))
    for rank, seen in eng.restricted:
        assert np.array_equal(seen, v[op.dof_sets[rank]])
    assert np.array_equal(out, reference_apply(op, v, RecordingEngine()))
    # the hooks changed the result: they are not bypassed
    assert not np.array_equal(out, op.apply(v))

    block = rng.standard_normal((p.a.n_rows, 2))
    eng = RecordingEngine()
    with use_engine(eng):
        out = op.apply(block)
    assert len(eng.restricted) == 2 * dec.n_subdomains
    assert all(seen.ndim == 1 for _, seen in eng.restricted + eng.solved)
    for j in range(2):
        assert np.array_equal(
            out[:, j], reference_apply(op, block[:, j], RecordingEngine())
        )
