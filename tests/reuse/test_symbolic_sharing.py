"""Symbolic analysis once per distinct subdomain pattern.

Every solver's ``symbolic()`` goes through
:func:`repro.reuse.symbolic.shared_symbolic`: congruent subdomains of a
box partition share one immutable symbolic record.  These tests pin the
count (5 analyses for 17 requests on the 2x2x2 elasticity build, none
shared on an algebraic partition), that sharing changes no bit of any
factor or of ``M.apply``, that a record is never written after creation
(refactoring, rebuilding or escalating one rank leaves its congruent
siblings alone), and the store's lifetime and bookkeeping.
"""

from __future__ import annotations

import gc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from repro import (
    FaultPlan,
    KrylovConfig,
    ResilienceConfig,
    SchwarzConfig,
    SolverSession,
)
from repro.api import AlgebraicProblem
from repro.dd.local_solvers import ORDERINGS, SOLVER_KINDS, LocalSolverSpec
from repro.dd.wrapper import unwrap
from repro.direct import MultifrontalCholesky
from repro.fem import elasticity_3d, laplace_3d
from repro.obs import Tracer, use_tracer
from repro.reuse import ArtifactCache, get_artifact_cache, use_artifact_cache
from repro.reuse.symbolic import shared_symbolic
from repro.sparse import CsrMatrix


@pytest.fixture(scope="module")
def elasticity():
    return elasticity_3d(5)


def session(problem, kind="tacho", **kwargs):
    return SolverSession(
        problem,
        partition=(2, 2, 2),
        config=SchwarzConfig(local=LocalSolverSpec(kind=kind)),
        **kwargs,
    )


def rescaled(a, rng):
    """``D A D`` with a seeded positive diagonal: new values, same pattern."""
    d = 1.0 + 0.1 * rng.random(a.n_rows)
    return CsrMatrix(
        a.indptr, a.indices, a.data * d[a.expanded_rows()] * d[a.indices], a.shape
    )


def cold_build(sess):
    """``(preconditioner, cache, tracer)`` of one build on a fresh cache."""
    tracer = Tracer()
    with use_artifact_cache(ArtifactCache()) as cache, use_tracer(tracer):
        m = sess.build_preconditioner()
    return m, cache, tracer


def counts(tracer):
    return int(tracer.total("symbolic_shared")), int(tracer.total("symbolic_analysed"))


def solvers_of(m):
    """The 17 factorizations of a 2x2x2 two-level build, by role."""
    return (
        list(m.one_level.locals)
        + [m._ext_solver_cache[i] for i in sorted(m._ext_solver_cache)]
        + [m.coarse]
    )


# ----------------------------------------------------------------------
# how many analyses a build makes
# ----------------------------------------------------------------------
class TestAnalysesPerBuild:
    def test_elasticity_box_build_analyses_5_patterns_for_17_requests(self, elasticity):
        m, cache, tracer = cold_build(session(elasticity))
        assert counts(tracer) == (12, 5)
        records = {id(s.symbolic_record) for s in solvers_of(m)}
        assert len(solvers_of(m)) == 17 and len(records) == 5
        assert len(cache.symbolic) == 5

    @pytest.mark.parametrize("kind", ["superlu", "iluk", "fastilu"])
    def test_every_kind_shares_congruent_subdomains(self, kind):
        m, _, tracer = cold_build(session(laplace_3d(6), kind=kind))
        shared, analysed = counts(tracer)
        assert shared + analysed == 17
        assert len({id(loc.symbolic_record) for loc in m.one_level.locals}) < 8

    def test_algebraic_partition_shares_none(self):
        p = laplace_3d(6)
        _, _, tracer = cold_build(session(AlgebraicProblem(p.a, p.b)))
        shared, analysed = counts(tracer)
        assert shared == 0 and analysed > 8

    def test_options_that_change_the_pattern_change_the_key(self, small_laplace):
        a = small_laplace.a
        with use_artifact_cache(ArtifactCache()):
            base = MultifrontalCholesky(ordering="nd").symbolic(a)
            alias = MultifrontalCholesky(ordering="metis", mode="ldlt").symbolic(a)
            other_width = MultifrontalCholesky(ordering="nd", max_supernode=2).symbolic(a)
            other_order = MultifrontalCholesky(ordering="rcm").symbolic(a)
        # an alias of the ordering and the value-only ``mode`` share ...
        assert alias.symbolic_record is base.symbolic_record
        # ... a different supernode cap or ordering does not
        assert other_width.symbolic_record is not base.symbolic_record
        assert other_order.symbolic_record is not base.symbolic_record


# ----------------------------------------------------------------------
# sharing changes no arithmetic
# ----------------------------------------------------------------------
class _Forgetful(dict):
    def __setitem__(self, key, value):
        pass


@contextmanager
def every_solver_alone():
    """An ambient cache whose symbolic store never holds anything:
    every ``symbolic()`` analyses for itself, as before sharing."""
    cache = ArtifactCache()
    cache.symbolic = _Forgetful()
    with use_artifact_cache(cache):
        yield


@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_shared_build_equals_unshared_build_bit_for_bit(kind):
    problem = elasticity_3d(4) if kind == "tacho" else laplace_3d(6)
    sess = session(problem, kind=kind)
    shared, _, tracer = cold_build(sess)
    assert counts(tracer)[0] > 0
    tracer = Tracer()
    with every_solver_alone(), use_tracer(tracer):
        alone = sess.build_preconditioner()
    assert counts(tracer)[0] == 0

    rng = np.random.default_rng(3)
    v = rng.standard_normal(problem.a.n_rows)
    block = rng.standard_normal((problem.a.n_rows, 3))
    assert np.array_equal(shared.apply(v), alone.apply(v))
    assert np.array_equal(shared.apply(block), alone.apply(block))
    for got, want in zip(shared.one_level.locals, alone.one_level.locals):
        w = rng.standard_normal(got.stages.n)
        assert np.array_equal(got.apply(w), want.apply(w))
        assert list(got.symbolic_profile) == list(want.symbolic_profile)
        assert list(got.numeric_profile) == list(want.numeric_profile)
    assert np.array_equal(shared.phi.data, alone.phi.data)
    assert np.array_equal(shared.a0.data, alone.a0.data)

    # ... and after a same-pattern refactorization
    a_new = rescaled(problem.a, rng)
    shared.refactor(a_new)
    alone.refactor(a_new)
    assert np.array_equal(shared.apply(v), alone.apply(v))


# ----------------------------------------------------------------------
# a record is never written after creation
# ----------------------------------------------------------------------
def record_bytes(record):
    """Every array a record holds, as bytes (records are flat dataclasses)."""
    out = {}
    for name, value in vars(record).items():
        if isinstance(value, np.ndarray):
            out[name] = value.tobytes()
        elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            out[name] = b"".join(v.tobytes() for v in value)
    return out


def test_record_arrays_are_read_only(elasticity):
    m, _, _ = cold_build(session(elasticity))
    record = m.one_level.locals[0].symbolic_record
    assert not record.perm.flags.writeable
    assert not record.col_ind.flags.writeable
    assert not record.rows_below[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        record.perm[0] = 0
    with pytest.raises(AttributeError):
        record.perm = record.perm.copy()


@pytest.mark.parametrize("kind", ["tacho", "iluk", "fastilu"])
def test_refactor_and_rebuild_of_one_rank_leave_siblings_untouched(kind):
    problem = laplace_3d(6)
    m, _, _ = cold_build(session(problem, kind=kind))
    ol = m.one_level
    by_record = {}
    for rank, loc in enumerate(ol.locals):
        by_record.setdefault(id(loc.symbolic_record), []).append(rank)
    rank, sibling = next(ranks for ranks in by_record.values() if len(ranks) > 1)[:2]
    record = ol.locals[sibling].symbolic_record
    assert ol.locals[rank].symbolic_record is record

    rng = np.random.default_rng(5)
    w = rng.standard_normal(ol.locals[sibling].stages.n)
    before_apply = ol.locals[sibling].apply(w)
    before_record = record_bytes(record)

    # numeric refactorization of one rank over new values ...
    scaled = rescaled(ol.matrices[rank], rng)
    refactored = ol.locals[rank].refactor(scaled)
    assert refactored.symbolic_record is record
    # ... and the in-place rebuild rebuild_rank() / the ladder performs
    with use_artifact_cache(ArtifactCache()):
        ol.locals[rank] = LocalSolverSpec(kind=kind).build(scaled)
    assert ol.locals[rank].symbolic_record is not record  # other cache: cold

    assert record_bytes(record) == before_record
    assert np.array_equal(ol.locals[sibling].apply(w), before_apply)
    assert not np.array_equal(refactored.apply(w), before_apply)


def test_ladder_escalation_of_one_rank_leaves_siblings_untouched(elasticity):
    """A pivot breakdown on rank 1 walks the diagonal-shift ladder
    (several rebuilds over the shared record); every other rank's factor
    equals the fault-free build's bit for bit."""
    clean, _, _ = cold_build(session(elasticity))
    faulty = session(
        elasticity,
        krylov=KrylovConfig(rtol=1e-7),
        policy=ResilienceConfig(fault_plan=FaultPlan.single("pivot_breakdown", rank=1, seed=11)),
    )
    with warnings.catch_warnings(), use_artifact_cache(ArtifactCache()):
        warnings.simplefilter("ignore")  # injected breakdown arithmetic
        result = faulty.solve()
    assert result.health.refactorizations > 0
    escalated = unwrap(faulty.operator).one_level.locals
    rng = np.random.default_rng(7)
    for rank, (got, want) in enumerate(zip(escalated, clean.one_level.locals)):
        w = rng.standard_normal(want.stages.n)
        if rank == 1:
            assert not np.array_equal(got.apply(w), want.apply(w))
        else:
            assert np.array_equal(got.apply(w), want.apply(w))
    # the ladder rebuilt rank 1 over the record its congruent sibling holds
    records = [loc.symbolic_record for loc in clean.one_level.locals]
    sibling = next(r for r in range(8) if r != 1 and records[r] is records[1])
    assert escalated[sibling].symbolic_record is escalated[1].symbolic_record


# ----------------------------------------------------------------------
# the store: cold when fresh, weak, outside the artifact tallies
# ----------------------------------------------------------------------
class TestStore:
    def test_fresh_cache_starts_cold(self, elasticity):
        sess = session(elasticity)
        m1, _, t1 = cold_build(sess)
        m2, _, t2 = cold_build(sess)  # m1's records are alive, elsewhere
        assert counts(t1) == counts(t2) == (12, 5)
        assert (
            m1.one_level.locals[0].symbolic_record
            is not m2.one_level.locals[0].symbolic_record
        )

    def test_store_retains_nothing_once_the_solvers_die(self, elasticity):
        m, cache, _ = cold_build(session(elasticity))
        assert len(cache.symbolic) == 5
        artifacts = len(cache)
        del m
        gc.collect()
        assert len(cache.symbolic) == 0
        assert len(cache) == artifacts  # the LRU artifacts are another matter

    def test_hits_and_misses_are_not_touched(self, elasticity):
        a = elasticity.a
        with use_artifact_cache(ArtifactCache()) as cache:
            first = MultifrontalCholesky().symbolic(a)
            second = MultifrontalCholesky().symbolic(a)
            assert second.symbolic_record is first.symbolic_record
            assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        # a build tallies its three artifact lookups and nothing else
        _, cache, _ = cold_build(session(elasticity))
        assert (cache.hits, cache.misses) == (0, 3)

    def test_symbolic_records_never_evict_artifacts(self, elasticity):
        cache = ArtifactCache(maxsize=2)
        cache.put(("decomposition", "x"), object())
        cache.put(("overlap", "y"), object())
        with use_artifact_cache(cache):
            held = [
                MultifrontalCholesky(max_supernode=w).symbolic(elasticity.a)
                for w in (2, 4, 8, 16)
            ]
        assert len(cache.symbolic) == len(held) == 4
        assert set(cache.keys()) == {("decomposition", "x"), ("overlap", "y")}

    def test_clear_empties_the_store(self, small_laplace):
        with use_artifact_cache(ArtifactCache()) as cache:
            solver = MultifrontalCholesky().symbolic(small_laplace.a)
            cache.clear()
            assert len(cache.symbolic) == 0
            again = MultifrontalCholesky().symbolic(small_laplace.a)
        assert again.symbolic_record is not solver.symbolic_record

    def test_helper_counts_on_the_tracer(self, small_laplace):
        a = small_laplace.a
        tracer = Tracer()
        with use_artifact_cache(ArtifactCache()), use_tracer(tracer):
            calls = []

            class Record:
                pass

            def analyse():
                calls.append(1)
                return Record()

            first, fp = shared_symbolic(("probe", 1), a, analyse)
            second, fp2 = shared_symbolic(("probe", 1), a, analyse)
            third, _ = shared_symbolic(("probe", 2), a, analyse)
            assert get_artifact_cache().symbolic  # held by the names above
        assert first is second and third is not first and fp == fp2
        assert len(calls) == 2 and counts(tracer) == (1, 2)


# ----------------------------------------------------------------------
# one ordering resolver: what the spec accepts, every kind builds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("kind", SOLVER_KINDS)
def test_every_kind_builds_under_every_ordering(kind, ordering, small_laplace):
    a = small_laplace.a
    loc = LocalSolverSpec(kind=kind, ordering=ordering).build(a)
    x = loc.apply(small_laplace.b)
    assert np.all(np.isfinite(x))
    if loc.exact:
        b = small_laplace.b
        assert np.linalg.norm(a.matvec(x) - b) <= 1e-8 * np.linalg.norm(b)


def test_unknown_ordering_is_rejected_by_spec_and_solvers(small_laplace):
    from repro.ilu import FastIlu, IlukFactorization
    from repro.direct import GilbertPeierlsLU

    with pytest.raises(ValueError, match="valid orderings: 'nd'"):
        LocalSolverSpec(ordering="spiral")
    for solver in (
        MultifrontalCholesky(ordering="spiral"),
        GilbertPeierlsLU(ordering="spiral"),
        IlukFactorization(ordering="spiral"),
        FastIlu(ordering="spiral"),
    ):
        with pytest.raises(ValueError, match="unknown ordering 'spiral'"):
            solver.symbolic(small_laplace.a)
