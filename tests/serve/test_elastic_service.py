"""SolverService elastic integration: scale-around, bit-identity."""

import numpy as np
import pytest

from repro.elastic import ElasticConfig
from repro.fem import laplace_3d
from repro.krylov.status import SolveStatus
from repro.resilience.inject import FaultPlan
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import SolveRequest, SolverService


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(5, 5, 5)


def _run(problem, n=6, **service_kw):
    with use_artifact_cache(ArtifactCache()):
        service = SolverService(max_batch=2, **service_kw)
        fp = service.register(problem.a)
        rng = np.random.default_rng(77)
        responses = []
        for _ in range(n):
            service.submit(
                SolveRequest(
                    rhs=problem.b + 0.1 * rng.standard_normal(problem.b.size),
                    matrix_fingerprint=fp,
                    partition=(2, 2, 1),
                )
            )
        responses = service.drain()
        service.close()
    return service, responses


class TestScaleAround:
    def test_straggler_triggers_merge_and_still_converges(self, problem):
        plan = FaultPlan.single("slow_rank", 1, magnitude=8.0)
        service, responses = _run(
            problem, elastic=ElasticConfig(), fault_plan=plan
        )
        assert all(r.status is SolveStatus.CONVERGED for r in responses)
        assert service.scale_arounds >= 1
        assert service.repartition_seconds > 0.0

    def test_elastic_beats_static_under_straggler(self, problem):
        plan = FaultPlan.single("slow_rank", 1, magnitude=8.0)
        static, r1 = _run(problem, fault_plan=plan)
        elastic, r2 = _run(
            problem, elastic=ElasticConfig(), fault_plan=plan
        )
        assert all(r.status is SolveStatus.CONVERGED for r in r1 + r2)
        assert elastic.clock < static.clock

    def test_straggler_pricing_slows_static_service(self, problem):
        healthy, _ = _run(problem)
        slowed, _ = _run(problem, fault_plan=FaultPlan.single("slow_rank", 1, magnitude=8.0))
        assert slowed.clock > healthy.clock


class TestNoTriggerIdentity:
    def test_elastic_enabled_idle_run_bit_identical(self, problem):
        plain, r1 = _run(problem)
        idle, r2 = _run(problem, elastic=ElasticConfig())
        assert idle.scale_arounds == 0
        assert idle.clock == plain.clock
        assert len(r1) == len(r2)
        for ra, rb in zip(r1, r2):
            assert ra.request_id == rb.request_id
            assert ra.status is rb.status
            assert ra.iterations == rb.iterations
            assert ra.latency_seconds == rb.latency_seconds
            assert np.array_equal(ra.x, rb.x)

    def test_elastic_inactive_with_healthy_stragglers_window(self, problem):
        # window far in the future: factors are all 1.0 at serve time
        plan = FaultPlan.single(
            "slow_rank", 1, magnitude=8.0, start=1e9, duration=1.0
        )
        plain, r1 = _run(problem)
        idle, r2 = _run(
            problem, elastic=ElasticConfig(), fault_plan=plan
        )
        assert idle.scale_arounds == 0
        assert idle.clock == plain.clock
        for ra, rb in zip(r1, r2):
            assert np.array_equal(ra.x, rb.x)
