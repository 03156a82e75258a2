"""Arrival traces, load estimation, admission decisions."""

from __future__ import annotations

import pytest

from repro.serve.admission import (
    BACKLOG_FACTOR,
    EWMA_ALPHA,
    MAX_QUEUE_DEPTH,
    ArrivalTrace,
    ShardLoadEstimator,
    admission_shed_reason,
)

SHARD = ("pat-a", (2, 2, 1), "cfg", "kry")


class TestArrivalTrace:
    @pytest.mark.parametrize("kind", ["poisson", "burst", "tenant_skewed"])
    def test_seeded_and_deterministic(self, kind):
        gen = getattr(ArrivalTrace, kind)
        a = gen(rate=10.0, n=32, seed=3)
        b = gen(rate=10.0, n=32, seed=3)
        c = gen(rate=10.0, n=32, seed=4)
        assert [x.time for x in a] == [x.time for x in b]
        assert [x.tenant for x in a] == [x.tenant for x in b]
        assert [x.time for x in a] != [x.time for x in c]

    @pytest.mark.parametrize("kind", ["poisson", "burst", "tenant_skewed"])
    def test_sorted_sized_positive(self, kind):
        trace = getattr(ArrivalTrace, kind)(rate=5.0, n=20, seed=0)
        times = [a.time for a in trace]
        assert len(trace) == 20
        assert times == sorted(times)
        assert all(t > 0 for t in times)
        assert trace.makespan >= 0.0

    def test_poisson_rate_scales_makespan(self):
        slow = ArrivalTrace.poisson(rate=1.0, n=64, seed=1)
        fast = ArrivalTrace.poisson(rate=8.0, n=64, seed=1)
        # same seed: the fast trace is the slow one compressed 8x
        assert fast.makespan == pytest.approx(slow.makespan / 8.0)

    def test_burst_has_co_arrivals(self):
        trace = ArrivalTrace.burst(
            rate=10.0, n=30, seed=2, burst_every=5, burst_size=3
        )
        times = [a.time for a in trace]
        # bursts share one arrival instant
        assert len(set(times)) < len(times)

    def test_tenant_skew_concentrates(self):
        trace = ArrivalTrace.tenant_skewed(
            rate=10.0, n=200, seed=0, tenants=4, skew=2.0
        )
        counts = {}
        for a in trace:
            counts[a.tenant] = counts.get(a.tenant, 0) + 1
        assert counts["tenant-0"] == max(counts.values())
        assert counts["tenant-0"] > 200 // 4  # hotter than uniform

    def test_bind_pairs_times_with_factory_output(self):
        trace = ArrivalTrace.poisson(rate=3.0, n=5, seed=0)
        bound = trace.bind(lambda a: f"req-{a.index}")
        assert [t for t, _ in bound] == [a.time for a in trace]
        assert [r for _, r in bound] == [f"req-{i}" for i in range(5)]

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            ArrivalTrace.poisson(rate=0.0, n=4)
        with pytest.raises(ValueError):
            ArrivalTrace.poisson(rate=1.0, n=0)
        with pytest.raises(ValueError):
            ArrivalTrace.tenant_skewed(rate=1.0, n=4, tenants=0)


class TestShardLoadEstimator:
    def test_optimistic_before_first_observation(self):
        est = ShardLoadEstimator()
        assert est.per_request_seconds(SHARD) == 0.0
        assert est.backlog_seconds(SHARD, 100) == 0.0

    def test_ewma_converges_toward_observations(self):
        assert EWMA_ALPHA == 0.5  # the averages below are halfway points
        est = ShardLoadEstimator()
        est.observe(SHARD, batch_seconds=4.0, width=4)  # 1.0 s/req
        assert est.per_request_seconds(SHARD) == pytest.approx(1.0)
        est.observe(SHARD, batch_seconds=12.0, width=4)  # 3.0 s/req
        assert est.per_request_seconds(SHARD) == pytest.approx(2.0)
        assert est.backlog_seconds(SHARD, 3) == pytest.approx(6.0)

    def test_shards_are_independent(self):
        est = ShardLoadEstimator()
        other = ("pat-b", (2, 2, 1), "cfg", "kry")
        est.observe(SHARD, 2.0, 1)
        assert est.per_request_seconds(other) == 0.0


class TestAdmissionController:
    def test_admits_when_unloaded(self):
        est = ShardLoadEstimator()
        assert admission_shed_reason(est, SHARD, 0, None) is None
        assert admission_shed_reason(est, SHARD, 0, 1e-6) is None

    def test_queue_full(self):
        est = ShardLoadEstimator()
        depth = MAX_QUEUE_DEPTH
        assert admission_shed_reason(est, SHARD, depth - 1, None) is None
        assert admission_shed_reason(est, SHARD, depth, None) == "queue_full"

    def test_backlog_sheds_only_with_deadline(self):
        est = ShardLoadEstimator()
        est.observe(SHARD, batch_seconds=1.0, width=1)  # 1 s/req
        # 5 queued -> 5 s backlog > BACKLOG_FACTOR * 2 s deadline: shed
        assert 5.0 > BACKLOG_FACTOR * 2.0
        assert admission_shed_reason(est, SHARD, 5, 2.0) == "admission_backlog"
        # same backlog, no deadline: admitted (nothing to violate)
        assert admission_shed_reason(est, SHARD, 5, None) is None
        # the threshold is the factor, not the bare deadline: a 5 s
        # backlog against a 4 s deadline is still admitted
        assert 5.0 <= BACKLOG_FACTOR * 4.0
        assert admission_shed_reason(est, SHARD, 5, 4.0) is None
        # roomy deadline: admitted
        assert admission_shed_reason(est, SHARD, 5, 10.0) is None
