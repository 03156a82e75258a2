"""Batcher coalescing rules: shard identity, width caps, ordering."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import KrylovConfig, SchwarzConfig
from repro.dd.local_solvers import LocalSolverSpec
from repro.fem import laplace_3d
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import RequestBatcher, SolveRequest, SolverService, shard_key


def _req(n=8, fp="pat-a", **kw):
    return SolveRequest(rhs=np.ones(n), matrix_fingerprint=fp, **kw)


def _add(batcher, req, fp="pat-a", values_fp="val-a", clock=0.0):
    batcher.add(req, shard_key(req, fp), values_fp, clock)


class TestCoalescing:
    def test_same_pattern_one_batch(self):
        b = RequestBatcher(max_batch=8)
        for i in range(4):
            _add(b, _req(tenant=f"t{i}"))
        batches = b.take_batches()
        assert len(batches) == 1
        assert batches[0].width == 4
        assert len(b) == 0  # drained

    def test_distinct_patterns_separate_batches(self):
        b = RequestBatcher(max_batch=8)
        _add(b, _req(fp="pat-a"), fp="pat-a", values_fp="val-a")
        _add(b, _req(fp="pat-b"), fp="pat-b", values_fp="val-b")
        batches = b.take_batches()
        assert len(batches) == 2
        assert {bt.shard[0] for bt in batches} == {"pat-a", "pat-b"}

    def test_distinct_values_same_pattern_separate_batches(self):
        """A multi-RHS solve applies ONE operator: same pattern with
        different values must not coalesce."""
        b = RequestBatcher(max_batch=8)
        _add(b, _req(), values_fp="val-1")
        _add(b, _req(), values_fp="val-2")
        assert len(b.take_batches()) == 2

    def test_distinct_configs_separate_batches(self):
        b = RequestBatcher(max_batch=8)
        _add(b, _req())
        _add(b, _req(config=SchwarzConfig(overlap=2)))
        _add(b, _req(krylov=KrylovConfig(rtol=1e-9)))
        assert len(b.take_batches()) == 3

    def test_max_batch_splits(self):
        b = RequestBatcher(max_batch=3)
        for _ in range(7):
            _add(b, _req())
        widths = sorted(bt.width for bt in b.take_batches())
        assert widths == [1, 3, 3]

    def test_batching_off_gives_width_one(self):
        b = RequestBatcher(max_batch=8, batching=False)
        for _ in range(5):
            _add(b, _req())
        batches = b.take_batches()
        assert [bt.width for bt in batches] == [1] * 5

    def test_max_batch_validated(self):
        with pytest.raises(ValueError):
            RequestBatcher(max_batch=0)


class TestOrdering:
    def test_earliest_deadline_first(self):
        b = RequestBatcher(batching=False)
        _add(b, _req(tenant="late", deadline=9.0))
        _add(b, _req(tenant="urgent", deadline=1.0))
        _add(b, _req(tenant="whenever"))  # no deadline -> last
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        assert order == ["urgent", "late", "whenever"]

    def test_priority_breaks_deadline_ties(self):
        b = RequestBatcher(batching=False)
        _add(b, _req(tenant="low", priority=0))
        _add(b, _req(tenant="high", priority=5))
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        assert order == ["high", "low"]

    def test_arrival_breaks_remaining_ties(self):
        b = RequestBatcher(batching=False)
        _add(b, _req(tenant="first"))
        _add(b, _req(tenant="second"))
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        assert order == ["first", "second"]

    def test_deadline_is_absolute_not_relative(self):
        """A deadline counts from submission: an early request with a
        long budget can still be due before a late request with a short
        one."""
        b = RequestBatcher(batching=False)
        _add(b, _req(tenant="early", deadline=5.0), clock=0.0)   # due at 5
        _add(b, _req(tenant="late", deadline=1.0), clock=10.0)   # due at 11
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        assert order == ["early", "late"]

    def test_priority_orders_within_batch(self):
        b = RequestBatcher(max_batch=2)
        _add(b, _req(tenant="a", priority=0))
        _add(b, _req(tenant="b", priority=9))
        _add(b, _req(tenant="c", priority=1))
        batches = b.take_batches()
        # the high-priority pair fills the first chunk
        assert [r.tenant for r in batches[0].requests] == ["b", "c"]
        assert [r.tenant for r in batches[1].requests] == ["a"]


class TestStableTiebreak:
    """Satellite regression: ordering must be a stable total order when
    all-None-deadline groups (``_deadline() == inf``) mix with dated
    ones -- the sort key ends in each chunk's first arrival ``seq``,
    which is globally unique, so no pair of chunks ever compares
    equal."""

    def test_all_none_deadline_groups_keep_arrival_order(self):
        b = RequestBatcher(batching=False)
        for i in range(6):
            _add(b, _req(tenant=f"t{i}"))  # no deadlines anywhere
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        assert order == [f"t{i}" for i in range(6)]

    def test_dated_groups_precede_every_undated_group(self):
        b = RequestBatcher(batching=False)
        _add(b, _req(tenant="undated-early"))
        _add(b, _req(tenant="dated", deadline=100.0))
        _add(b, _req(tenant="undated-late"))
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        # the dated group jumps the queue no matter how late its
        # deadline is; the undated pair keeps arrival order at +inf
        assert order == ["dated", "undated-early", "undated-late"]

    def test_priority_orders_within_the_inf_deadline_block(self):
        b = RequestBatcher(batching=False)
        _add(b, _req(tenant="low-first", priority=0))
        _add(b, _req(tenant="high", priority=3))
        _add(b, _req(tenant="low-second", priority=0))
        order = [bt.requests[0].tenant for bt in b.take_batches()]
        assert order == ["high", "low-first", "low-second"]

    def test_mixed_order_is_deterministic_across_refills(self):
        """The same pending set (same seq assignment) must drain in the
        same order every time -- no dict-iteration or sort-instability
        leakage."""
        def fill(b):
            _add(b, _req(tenant="u0"), values_fp="val-a")
            _add(b, _req(tenant="d1", deadline=5.0), values_fp="val-b")
            _add(b, _req(tenant="u2", priority=1), values_fp="val-c")
            _add(b, _req(tenant="d3", deadline=2.0), values_fp="val-d")
            _add(b, _req(tenant="u4"), values_fp="val-e")

        orders = []
        for _ in range(3):
            b = RequestBatcher(batching=False)
            fill(b)
            orders.append(
                [bt.requests[0].tenant for bt in b.take_batches()]
            )
        assert orders[0] == orders[1] == orders[2]
        assert orders[0] == ["d3", "d1", "u2", "u0", "u4"]

    def test_take_next_batch_matches_take_batches_order(self):
        """Streaming one-at-a-time drain must walk exactly the order a
        single up-front drain would have produced."""
        def fill(b):
            _add(b, _req(tenant="u0"), values_fp="val-a")
            _add(b, _req(tenant="d1", deadline=5.0), values_fp="val-b")
            _add(b, _req(tenant="u2"), values_fp="val-c")
            _add(b, _req(tenant="d3", deadline=2.0), values_fp="val-d")

        b_all = RequestBatcher(batching=False)
        fill(b_all)
        expected = [bt.requests[0].tenant for bt in b_all.take_batches()]

        b_one = RequestBatcher(batching=False)
        fill(b_one)
        streamed = []
        while True:
            bt = b_one.take_next_batch()
            if bt is None:
                break
            streamed.append(bt.requests[0].tenant)
        assert streamed == expected
        assert len(b_one) == 0

    def test_take_next_batch_leaves_rest_pending_intact(self):
        b = RequestBatcher(max_batch=8)
        _add(b, _req(tenant="a"), values_fp="val-a", clock=1.0)
        _add(b, _req(tenant="b"), values_fp="val-b", clock=2.0)
        first = b.take_next_batch()
        assert [r.tenant for r in first.requests] == ["a"]
        assert len(b) == 1
        second = b.take_next_batch()
        # original arrival stamp survives the partial drain
        assert second.arrival_clocks == [2.0]
        assert b.take_next_batch() is None


# ----------------------------------------------------------------------
# a field that changes the preconditioner changes the shard
# ----------------------------------------------------------------------
#: one field each: a request with it differs from the default request
#: in that field only (``n`` is the operator order)
def _operator_fields(n):
    return {
        "coarse": dict(
            config=SchwarzConfig(coarse=LocalSolverSpec(kind="superlu"))
        ),
        "dim": dict(config=SchwarzConfig(dim=2)),
        "nullspace": dict(nullspace=np.linspace(1.0, 2.0, n)[:, None]),
    }


@pytest.mark.parametrize("field", ["coarse", "dim", "nullspace"])
def test_operator_fields_split_the_pooled_session(field):
    a = laplace_3d(4).a
    with use_artifact_cache(ArtifactCache()):
        service = SolverService()
        fp = service.register(a)
        base = SolveRequest(
            rhs=np.ones(a.n_rows), matrix_fingerprint=fp, partition=(2, 2, 1)
        )
        other = dataclasses.replace(base, **_operator_fields(a.n_rows)[field])
        assert shard_key(base, fp) != shard_key(other, fp)
        for req in (base, other):
            assert service.solve(req).converged
        assert len(service.pool) == 2
        service.close()


def test_same_explicit_nullspace_shares_the_shard():
    z = np.linspace(1.0, 2.0, 8)[:, None]
    first = _req(nullspace=z)
    second = _req(nullspace=z.copy(), tenant="other")
    assert shard_key(first, "pat-a") == shard_key(second, "pat-a")


# ----------------------------------------------------------------------
# the shard keys on the canonical config, not on describe() strings
# ----------------------------------------------------------------------
def _fastilu(**kw):
    return SchwarzConfig(local=LocalSolverSpec(kind="fastilu", **kw))


def _serve_pair(first_config, second_config):
    """Serve one request per config; returns (keys equal, pool size,
    the two responses, the registered fingerprint)."""
    a = laplace_3d(4).a
    with use_artifact_cache(ArtifactCache()):
        service = SolverService()
        fp = service.register(a)
        reqs = [
            SolveRequest(
                rhs=np.ones(a.n_rows), matrix_fingerprint=fp,
                partition=(2, 2, 1), config=config,
            )
            for config in (first_config, second_config)
        ]
        same = shard_key(reqs[0], fp) == shard_key(reqs[1], fp)
        responses = [service.solve(req) for req in reqs]
        pooled = len(service.pool)
        service.close()
    return same, pooled, responses, fp


@pytest.mark.parametrize("field", ["factor_damping", "solve_damping"])
def test_fastilu_damping_splits_the_pooled_session(field):
    # describe() leaves both dampings out: keyed on it, the second
    # request was solved with the first one's preconditioner
    same, pooled, responses, fp = _serve_pair(
        _fastilu(), _fastilu(**{field: 0.3})
    )
    assert not same
    assert pooled == 2
    assert all(r.converged for r in responses)
    # both print the same display string, so only the key hash in the
    # label tells the two shards apart
    labels = [r.shard for r in responses]
    assert labels[0] != labels[1]
    for label in labels:
        prefix, shown = label.split(":", 1)
        assert prefix.startswith(f"{fp[:8]}#")
        assert shown == _fastilu().describe()


@pytest.mark.parametrize(
    "first, second",
    [
        (LocalSolverSpec(ordering="nd"), LocalSolverSpec(ordering="metis")),
        (
            LocalSolverSpec(kind="iluk", ordering="natural"),
            LocalSolverSpec(kind="iluk", ordering="none", factor_damping=0.3),
        ),
    ],
    ids=["ordering_alias", "alias_and_unread_field"],
)
def test_same_solver_shares_the_pooled_session(first, second):
    # "metis" resolves to "nd": one preconditioner, so one session and
    # one factorization; a field the kind never reads does not split
    same, pooled, responses, _ = _serve_pair(
        SchwarzConfig(local=first), SchwarzConfig(local=second)
    )
    assert same
    assert pooled == 1
    assert all(r.converged for r in responses)
    assert [r.shard.split(":", 1)[1] for r in responses] == [
        SchwarzConfig(local=spec).describe() for spec in (first, second)
    ]


def test_solver_key_reads_only_the_kind_fields():
    assert LocalSolverSpec(kind="tacho", ordering="metis").key() == ("tacho", "nd")
    assert LocalSolverSpec(kind="iluk", ilu_level=2).key() == ("iluk", "nd", 2)
    assert LocalSolverSpec(kind="superlu", gpu_solve=True).key() == (
        "superlu", "nd", True,
    )
    assert LocalSolverSpec(kind="fastilu").key() == (
        "fastilu", "nd", 1, 3, 5, 0.7, 0.8,
    )


@pytest.mark.parametrize(
    "second",
    [
        dict(partition=(1, 2, 2)),
        dict(krylov=KrylovConfig(rtol=1e-9)),
    ],
    ids=["partition", "krylov"],
)
def test_shards_differing_in_partition_or_krylov_get_different_labels(second):
    a = laplace_3d(4).a
    with use_artifact_cache(ArtifactCache()):
        service = SolverService()
        fp = service.register(a)
        base = SolveRequest(
            rhs=np.ones(a.n_rows), matrix_fingerprint=fp, partition=(2, 2, 1)
        )
        responses = [
            service.solve(req) for req in (base, dataclasses.replace(base, **second))
        ]
        # a repeat of the first shard keeps its label
        again = service.solve(dataclasses.replace(base, tenant="other"))
        service.close()
    assert responses[0].shard != responses[1].shard
    assert again.shard == responses[0].shard
    assert all(r.shard.split(":", 1)[1] == base.config.describe() for r in responses)
