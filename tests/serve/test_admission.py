"""Arrival traces, token buckets, load estimation, admission decisions."""

from __future__ import annotations

import pytest

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    Arrival,
    ArrivalTrace,
    ShardLoadEstimator,
    TokenBucket,
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


class TestTokenBucket:
    def test_spends_down_then_refuses(self):
        b = TokenBucket(capacity=2.0, rate=0.0)
        assert b.try_take(0.0)
        assert b.try_take(0.0)
        assert not b.try_take(0.0)

    def test_refills_at_rate_up_to_capacity(self):
        b = TokenBucket(capacity=2.0, rate=1.0)
        assert b.try_take(0.0) and b.try_take(0.0)
        assert not b.try_take(0.5)  # only 0.5 tokens back
        assert b.try_take(1.5)      # >= 1 token accrued
        # long idle caps at capacity, not unbounded
        b2 = TokenBucket(capacity=2.0, rate=1.0)
        for _ in range(2):
            assert b2.try_take(100.0)
        assert not b2.try_take(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(capacity=0.0, rate=1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=1.0, rate=-1.0)


class TestShardLoadEstimator:
    def test_optimistic_before_first_observation(self):
        est = ShardLoadEstimator()
        assert est.per_request_seconds(SHARD) == 0.0
        assert est.backlog_seconds(SHARD, 100) == 0.0

    def test_ewma_converges_toward_observations(self):
        est = ShardLoadEstimator(alpha=0.5)
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
    def _ctl(self, **kw):
        est = ShardLoadEstimator()
        return AdmissionController(AdmissionConfig(**kw), est), est

    def test_admits_when_unloaded(self):
        ctl, _ = self._ctl()
        assert ctl.decide(0.0, SHARD, 0, None) is None
        assert ctl.decide(0.0, SHARD, 0, 1e-6) is None

    def test_queue_full(self):
        ctl, _ = self._ctl(max_queue_depth=2)
        assert ctl.decide(0.0, SHARD, 1, None) is None
        assert ctl.decide(0.0, SHARD, 2, None) == "queue_full"

    def test_rate_limited(self):
        ctl, _ = self._ctl(bucket_capacity=1.0, bucket_rate=1.0)
        assert ctl.decide(0.0, SHARD, 0, None) is None
        assert ctl.decide(0.0, SHARD, 0, None) == "rate_limited"
        # a model second later a token has refilled
        assert ctl.decide(1.0, SHARD, 0, None) is None

    def test_backlog_sheds_only_with_deadline(self):
        ctl, est = self._ctl(backlog_factor=1.0)
        est.observe(SHARD, batch_seconds=1.0, width=1)  # 1 s/req
        # 5 queued -> 5 s backlog > 2 s deadline: shed
        assert ctl.decide(0.0, SHARD, 5, 2.0) == "admission_backlog"
        # same backlog, no deadline: admitted (nothing to violate)
        assert ctl.decide(0.0, SHARD, 5, None) is None
        # roomy deadline: admitted
        assert ctl.decide(0.0, SHARD, 5, 10.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionConfig(backlog_factor=0.0)
