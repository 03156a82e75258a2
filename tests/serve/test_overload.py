"""Overload behavior end to end: containment, retries, shedding,
breakers, degradation, and the guarded/unguarded bit-identity contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fem import laplace_3d
from repro.krylov import SolveStatus
from repro.resilience.inject import FaultPlan, FaultSpec, seeded_jitter
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import ArrivalTrace, GuardConfig, SolveRequest, SolverService
from repro.serve.admission import MAX_QUEUE_DEPTH
from repro.serve.guard import BREAKER_THRESHOLD, MAX_RETRIES


@pytest.fixture(scope="module")
def laplace():
    return laplace_3d(5, 5, 5)


@pytest.fixture
def cache():
    with use_artifact_cache(ArtifactCache()) as c:
        yield c


def _service(laplace, **kw):
    service = SolverService(**kw)
    fp = service.register(laplace.a)
    return service, fp


def _req(laplace, fp, i, **kw):
    rng = np.random.default_rng(i)
    return SolveRequest(
        rhs=laplace.b + 0.1 * rng.standard_normal(laplace.b.size),
        matrix_fingerprint=fp, tenant=f"t{i}", partition=(2, 2, 1), **kw,
    )


def _factory(laplace, fp, **kw):
    def make(arrival):
        return _req(laplace, fp, arrival.index, **kw)
    return make


def _failing(service, fails):
    """Make every batch of ``service`` raise when ``fails(head_id,
    attempt)`` holds (ad-hoc failure patterns no seeded plan gives)."""
    serve = service._serve_batch

    def patched(batch, *args):
        head = batch.requests[0].request_id
        if fails(head, service._attempts.get(head, 0)):
            raise RuntimeError(f"boom (batch head {head})")
        return serve(batch, *args)

    service._serve_batch = patched
    return service


def _transient_seed(head="r00000", rate=0.5):
    """A plan seed whose ``batch_fault`` hits ``head`` on its first
    attempt only."""
    return next(
        seed for seed in range(1000)
        if seeded_jitter(seed, f"fault:{head}", 0) < rate
        <= seeded_jitter(seed, f"fault:{head}", 1)
    )


class TestContainment:
    """Satellite: a raising batch must not strand the rest of the drain."""

    def test_failed_batch_yields_failed_responses_and_drain_continues(
        self, laplace, cache
    ):
        # no guard: the failure is contained but not retried
        service, fp = _service(laplace)
        _failing(service, lambda head, attempt: head == "r00000")
        for i in range(3):
            service.submit(_req(laplace, fp, i))
        # distinct configs would split batches; same config = one batch,
        # so submit a second, different shard that must still be served
        from repro.api import KrylovConfig

        service.submit(_req(laplace, fp, 99, krylov=KrylovConfig(rtol=1e-6)))
        responses = service.drain()
        assert len(responses) == 4
        by_status = {}
        for r in responses:
            by_status.setdefault(r.status, []).append(r)
        failed = by_status[SolveStatus.FAILED]
        assert len(failed) == 3
        assert all("boom" in r.error for r in failed)
        assert all(not r.converged for r in failed)
        # the later batch was still served
        assert len(by_status[SolveStatus.CONVERGED]) == 1
        assert service.batch_failures == 1

    def test_unguarded_service_raises_nothing_to_caller(self, laplace, cache):
        service, fp = _service(laplace)
        _failing(service, lambda head, attempt: True)
        service.submit(_req(laplace, fp, 0))
        (resp,) = service.drain()  # must not raise
        assert resp.status is SolveStatus.FAILED
        assert "boom" in resp.error


class TestRetry:
    def test_transient_fault_retried_to_success(self, laplace, cache):
        plan = FaultPlan.single(
            "batch_fault", magnitude=0.5, seed=_transient_seed()
        )
        service, fp = _service(laplace, guard=GuardConfig(), fault_plan=plan)
        service.submit(_req(laplace, fp, 0))
        (resp,) = service.drain()
        assert resp.status is SolveStatus.CONVERGED
        assert resp.retries == 1
        assert service.retries == 1
        assert [f.kind for f in plan.fired] == ["batch_fault"]

    def test_retries_exhaust_to_failed(self, laplace, cache):
        service, fp = _service(laplace, guard=GuardConfig())
        _failing(service, lambda head, attempt: True)
        service.submit(_req(laplace, fp, 0))
        (resp,) = service.drain()
        assert resp.status is SolveStatus.FAILED
        # initial attempt + MAX_RETRIES retries, all failed; the last
        # failure is the breaker's BREAKER_THRESHOLD-th, after which
        # nothing is left to retry
        assert MAX_RETRIES + 1 == BREAKER_THRESHOLD
        assert resp.retries == MAX_RETRIES + 1
        assert service.retries == MAX_RETRIES
        assert service.batch_failures == MAX_RETRIES + 1

    def test_retry_clock_is_deterministic(self, laplace, cache):
        """Satellite: same request ids + seed => bit-identical retry
        schedule, hence bit-identical clocks and responses."""
        clocks, latencies = [], []
        for _ in range(2):
            with use_artifact_cache(ArtifactCache()):
                service, fp = _service(laplace, guard=GuardConfig(seed=3))
                _failing(service, lambda head, attempt: attempt == 0)
                for i in range(2):
                    service.submit(_req(laplace, fp, i))
                rs = service.drain()
                clocks.append(service.clock)
                latencies.append([r.latency_seconds for r in rs])
        assert clocks[0] == clocks[1]
        assert latencies[0] == latencies[1]

    def test_backoff_capped_by_deadline(self, laplace, cache):
        """A retry whose backoff lands past the deadline is refused."""
        service, fp = _service(laplace, guard=GuardConfig(backoff_base=10.0))
        _failing(service, lambda head, attempt: True)
        service.submit(_req(laplace, fp, 0, deadline=1.0))
        (resp,) = service.drain()
        # first failure happens at clock ~0; a 10 s backoff lands past
        # the 1 s deadline, so no retry is scheduled at all
        assert resp.status is SolveStatus.FAILED
        assert resp.retries == 1
        assert service.retries == 0


class TestShedding:
    def test_queue_full_sheds_at_admission(self, laplace, cache):
        service, fp = _service(laplace, guard=GuardConfig())
        for i in range(MAX_QUEUE_DEPTH + 2):
            service.submit(_req(laplace, fp, i))
        responses = service.drain()
        shed = [r for r in responses if r.status is SolveStatus.SHED]
        assert len(shed) == 2
        assert all(r.shed_reason == "queue_full" for r in shed)
        assert service.sheds == 2
        served = [r for r in responses if r.status is not SolveStatus.SHED]
        assert all(r.converged for r in served)

    def test_hopeless_request_shed_in_queue(self, laplace, cache):
        """A queued request whose deadline passed before its batch
        started is shed, not served late."""
        service, fp = _service(laplace, guard=GuardConfig())
        # first request: no deadline, its service advances the clock
        service.submit(_req(laplace, fp, 0))
        service.drain()
        assert service.clock > 0.0
        # stamped as arriving at clock 0 with a deadline already passed
        service.submit(_req(laplace, fp, 1, deadline=service.clock / 2),
                       arrival=0.0)
        (resp,) = service.drain()
        assert resp.status is SolveStatus.SHED
        assert resp.shed_reason == "deadline_passed"

    def test_breaker_opens_and_sheds_fast(self, laplace, cache):
        service, fp = _service(laplace, guard=GuardConfig(breaker_cooldown=1e9))
        _failing(service, lambda head, attempt: True)
        service.submit(_req(laplace, fp, 0))
        (first,) = service.drain()
        # the first request's attempts fail BREAKER_THRESHOLD batches in
        # a row and open the breaker ...
        assert first.status is SolveStatus.FAILED
        assert service.batch_failures == BREAKER_THRESHOLD
        # ... so later requests shed without touching the (modeled) GPU
        for i in range(1, 3):
            service.submit(_req(laplace, fp, i))
            (resp,) = service.drain()
            assert resp.status is SolveStatus.SHED
            assert resp.shed_reason == "circuit_open"
        assert service.batch_failures == BREAKER_THRESHOLD


class TestDegradation:
    def test_pressure_degrades_and_reports(self, laplace, cache):
        service, fp = _service(laplace, guard=GuardConfig())
        # seed the shard's load estimate with one normal solve
        service.submit(_req(laplace, fp, 0, tolerance_budget=1e-4))
        (first,) = service.drain()
        assert first.degradation is None
        per_req = service._estimator.per_request_seconds(
            next(iter(service._estimator._per_request))
        )
        assert per_req > 0.0
        # a request with almost no headroom: pressure >> 1
        service.submit(_req(laplace, fp, 1, deadline=per_req / 8,
                            tolerance_budget=1e-4))
        (resp,) = service.drain()
        assert resp.degradation is not None
        assert "degrade_rtol" in resp.degradation["rungs"]
        assert "degrade_one_level" in resp.degradation["rungs"]
        assert resp.degradation["levels"] == 1
        assert service.degraded_batches == 1
        # degraded, not broken: the solve still converged
        assert resp.converged

    def test_no_deadline_never_degrades(self, laplace, cache):
        service, fp = _service(laplace, guard=GuardConfig())
        for i in range(4):
            service.submit(_req(laplace, fp, i, tolerance_budget=1e-4))
        responses = service.drain()
        assert all(r.degradation is None for r in responses)
        assert service.degraded_batches == 0


class TestRunTrace:
    def test_streaming_matches_request_count(self, laplace, cache):
        service, fp = _service(laplace)
        trace = ArrivalTrace.poisson(rate=20.0, n=10, seed=1)
        responses = service.run_trace(trace.bind(_factory(laplace, fp)))
        assert len(responses) == 10
        assert all(r.converged for r in responses)
        assert service.clock >= trace.arrivals[-1].time

    def test_guard_is_bit_identical_when_idle(self, laplace, cache):
        """Satellite: guarded-but-untriggered serving must equal the
        plain service bit for bit (responses AND clock)."""
        trace = ArrivalTrace.poisson(rate=20.0, n=8, seed=2)
        runs = []
        for kw in (
            {},
            {"guard": GuardConfig()},
        ):
            with use_artifact_cache(ArtifactCache()):
                service, fp = _service(laplace, **kw)
                rs = service.run_trace(trace.bind(_factory(laplace, fp)))
                runs.append((service, rs))
        plain, guarded = runs
        assert guarded[0].sheds == 0
        assert guarded[0].retries == 0
        assert guarded[0].degraded_batches == 0
        assert plain[0].clock == guarded[0].clock
        for a, b in zip(plain[1], guarded[1]):
            assert a.request_id == b.request_id
            assert a.status is b.status
            assert a.iterations == b.iterations
            assert a.latency_seconds == b.latency_seconds
            assert np.array_equal(a.x, b.x)

    def test_arrivals_during_service_join_later_batches(self, laplace, cache):
        """One batch per round: a request arriving while the first is
        in service lands in a second batch, not the first."""
        service, fp = _service(laplace)
        reqs = [(0.0, _req(laplace, fp, 0)), (1e-9, _req(laplace, fp, 1))]
        # nearly simultaneous -- but the second lands after the first
        # width-1 batch was taken at clock 0, so they never coalesce
        responses = service.run_trace(reqs)
        assert len(responses) == 2
        assert [r.batch_width for r in responses] == [1, 1]
        # the second waited out the first batch's service
        assert responses[1].queue_wait_seconds > 0.0


class TestFaultInjector:
    """The ``batch_fault`` kind of the one seeded FaultPlan."""

    def test_deterministic_and_transient(self):
        def hits(plan, attempt=0):
            return [
                plan.batch_faulted(f"r{i:05d}", attempt) for i in range(64)
            ]

        plan = FaultPlan.single("batch_fault", magnitude=0.5, seed=0)
        first = hits(plan)
        assert any(first) and not all(first)
        assert hits(plan.reset()) == first  # bit-identical replay
        assert len(plan.fired) == sum(first)
        # the decision is the seeded hash of (seed, head, attempt)
        assert first == [
            seeded_jitter(0, f"fault:r{i:05d}", 0) < 0.5 for i in range(64)
        ]
        # transience: a faulted (rid, attempt=0) eventually passes as
        # the attempt counter bumps
        rid = f"r{first.index(True):05d}"
        assert not all(plan.batch_faulted(rid, a) for a in range(1, 20))

    def test_zero_rate_never_fires(self):
        plan = FaultPlan.single("batch_fault", magnitude=0.0)
        assert not any(plan.batch_faulted(f"r{i}", 0) for i in range(64))
        assert plan.fired == []

    def test_rate_validation(self):
        for rate in (1.0, -0.1, None):
            with pytest.raises(ValueError, match="batch fault rate"):
                FaultSpec(kind="batch_fault", magnitude=rate)
