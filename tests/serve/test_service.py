"""End-to-end service behavior: streams, pooling, pinning, deadlines."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fem import elasticity_3d, laplace_3d
from repro.krylov import SolveStatus, gmres
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import OperatorConflictError, SolveRequest, SolverService
from repro.serve import service as service_module


@pytest.fixture(scope="module")
def laplace():
    return laplace_3d(5, 5, 5)


@pytest.fixture(scope="module")
def elasticity():
    return elasticity_3d(3, 3, 3)


@pytest.fixture
def cache():
    with use_artifact_cache(ArtifactCache()) as c:
        yield c


def _requests(problem, fp, k, rng, **kw):
    out = []
    for i in range(k):
        b = problem.b if i == 0 else (
            problem.b + 0.1 * rng.standard_normal(problem.b.size)
        )
        out.append(SolveRequest(
            rhs=b, matrix_fingerprint=fp, tenant=f"t{i}",
            partition=(2, 2, 1), **kw,
        ))
    return out


class TestStream:
    def test_same_pattern_coalesces_into_one_block(self, laplace, cache, rng):
        service = SolverService()
        fp = service.register(laplace.a)
        for req in _requests(laplace, fp, 4, rng):
            service.submit(req)
        responses = service.drain()
        assert len(responses) == 4
        assert all(r.batch_width == 4 for r in responses)
        assert all(r.status is SolveStatus.CONVERGED for r in responses)
        assert all(r.final_relres < 1e-6 for r in responses)
        # one pooled session served the whole stream
        assert len(service.pool) == 1
        service.close()

    def test_explicit_width_still_honored(self, laplace, cache, rng):
        service = SolverService(max_batch=3)
        assert service.batcher.max_batch == 3
        fp = service.register(laplace.a)
        for req in _requests(laplace, fp, 4, rng):
            service.submit(req)
        widths = sorted(r.batch_width for r in service.drain())
        assert widths == [1, 3, 3, 3]
        service.close()

    def test_mixed_tenant_classes_shard_separately(
        self, laplace, elasticity, cache, rng
    ):
        """The ISSUE's end-to-end stream: {Laplace, elasticity} tenants
        interleaved -- per-class coalescing, separate shards."""
        service = SolverService()
        fp_l = service.register(laplace.a)
        fp_e = service.register(
            elasticity.a, coordinates=elasticity.coordinates,
            dofs_per_node=3,
        )
        reqs = _requests(laplace, fp_l, 2, rng) + _requests(
            elasticity, fp_e, 2, rng
        )
        # interleave submissions
        for req in (reqs[0], reqs[2], reqs[1], reqs[3]):
            service.submit(req)
        responses = service.drain()
        assert len(responses) == 4
        assert all(r.converged for r in responses)
        by_width = sorted(r.batch_width for r in responses)
        assert by_width == [2, 2, 2, 2]
        assert len(service.pool) == 2  # one session per shard
        service.close()

    def test_block_iterations_match_single_rhs(self, laplace, cache, rng):
        service = SolverService()
        fp = service.register(laplace.a)
        reqs = _requests(laplace, fp, 3, rng)
        for req in reqs:
            service.submit(req)
        responses = sorted(service.drain(), key=lambda r: r.request_id)
        pooled = next(iter(service.pool._sessions.values()))
        for req, resp in zip(reqs, responses):
            single = gmres(
                laplace.a, req.rhs, preconditioner=pooled.precond,
                rtol=1e-7,
            )
            assert resp.iterations == single.iterations
            assert np.array_equal(resp.x, single.x)
        service.close()

    def test_unregistered_fingerprint_rejected(self, cache):
        service = SolverService()
        with pytest.raises(KeyError, match="register"):
            service.submit(SolveRequest(
                rhs=np.ones(4), matrix_fingerprint="nope",
            ))

    def test_solve_shortcut(self, laplace, cache):
        service = SolverService()
        resp = service.solve(SolveRequest(
            rhs=laplace.b, matrix=laplace.a, partition=(2, 2, 1),
        ))
        assert resp.converged and resp.batch_width == 1
        service.close()


class TestModeledClock:
    def test_clock_advances_and_queue_wait_accrues(self, laplace, cache, rng):
        service = SolverService(batching=False)
        fp = service.register(laplace.a)
        for req in _requests(laplace, fp, 3, rng):
            service.submit(req)
        responses = service.drain()
        assert service.clock > 0.0
        waits = sorted(r.queue_wait_seconds for r in responses)
        assert waits[0] == 0.0          # first batch starts immediately
        assert waits[1] > 0.0           # later ones waited
        assert waits[2] > waits[1]
        for r in responses:
            assert r.latency_seconds == pytest.approx(
                r.queue_wait_seconds + r.service_seconds
            )

    def test_deadline_met_and_missed(self, laplace, cache, rng):
        service = SolverService(batching=False)
        fp = service.register(laplace.a)
        reqs = _requests(laplace, fp, 2, rng)
        reqs[0].deadline = 1e6      # generous: met
        reqs[1].deadline = 1e-9     # impossible: missed
        for req in reqs:
            service.submit(req)
        responses = {r.request_id: r for r in service.drain()}
        assert responses[reqs[0].request_id].deadline_met is True
        assert responses[reqs[1].request_id].deadline_met is False
        # the impossible deadline is still served FIRST (earliest due)
        assert responses[reqs[1].request_id].queue_wait_seconds == 0.0

    def test_priority_orders_service(self, laplace, cache, rng):
        service = SolverService(batching=False)
        fp = service.register(laplace.a)
        reqs = _requests(laplace, fp, 2, rng)
        reqs[1].priority = 10
        for req in reqs:
            service.submit(req)
        responses = {r.request_id: r for r in service.drain()}
        assert responses[reqs[1].request_id].queue_wait_seconds == 0.0
        assert responses[reqs[0].request_id].queue_wait_seconds > 0.0

    def test_concurrent_round_prices_slowest_tenant(self, laplace, cache, rng):
        serial = SolverService(batching=False)
        fp = serial.register(laplace.a)
        for req in _requests(laplace, fp, 4, rng):
            serial.submit(req)
        serial.drain(concurrent=False)

        with use_artifact_cache(ArtifactCache()):
            conc = SolverService(batching=False)
            fp = conc.register(laplace.a)
            for req in _requests(laplace, fp, 4, rng):
                conc.submit(req)
            conc.drain(concurrent=True)
        # four MPS tenants finish well before four serial turns
        assert conc.clock < serial.clock
        serial.close(), conc.close()

    def test_batched_beats_unbatched(self, laplace, cache, rng):
        """The headline gate at width 4, service-level."""
        unbatched = SolverService(batching=False)
        fp = unbatched.register(laplace.a)
        for req in _requests(laplace, fp, 4, rng):
            unbatched.submit(req)
        unbatched.drain()

        with use_artifact_cache(ArtifactCache()):
            batched = SolverService(batching=True)
            fp = batched.register(laplace.a)
            for req in _requests(laplace, fp, 4, rng):
                batched.submit(req)
            batched.drain()
        assert batched.clock < unbatched.clock
        unbatched.close(), batched.close()


class TestPoolAndPinning:
    def test_pool_pins_decomposition_while_live(self, laplace, rng):
        with use_artifact_cache(ArtifactCache(maxsize=2)) as cache:
            service = SolverService()
            fp = service.register(laplace.a)
            service.solve(SolveRequest(
                rhs=laplace.b, matrix_fingerprint=fp, partition=(2, 2, 1),
            ))
            pin_key = next(
                iter(service.pool._sessions.values())
            ).pin_key
            assert cache.pin_count(pin_key) == 1
            # an interleaved tenant floods the tiny cache...
            for i in range(6):
                cache.put(("decomposition", f"other-{i}", (1, 1, 1)), i)
            # ...but the live session's artifact survives
            assert cache.get(pin_key) is not None
            service.close()
            assert cache.pin_count(pin_key) == 0

    def test_pool_eviction_unpins(
        self, laplace, elasticity, cache, rng, monkeypatch
    ):
        # a one-session pool: the second shard evicts the first
        monkeypatch.setattr(service_module, "POOL_SIZE", 1)
        service = SolverService()
        fp_l = service.register(laplace.a)
        fp_e = service.register(
            elasticity.a, coordinates=elasticity.coordinates,
            dofs_per_node=3,
        )
        service.solve(SolveRequest(
            rhs=laplace.b, matrix_fingerprint=fp_l, partition=(2, 2, 1),
        ))
        first_pin = next(iter(service.pool._sessions.values())).pin_key
        service.solve(SolveRequest(
            rhs=elasticity.b, matrix_fingerprint=fp_e, partition=(2, 2, 1),
        ))
        assert len(service.pool) == 1
        assert service.pool.evictions == 1
        assert cache.pin_count(first_pin) == 0  # evicted -> unpinned
        service.close()

    def test_same_values_resolves_skip_setup(self, laplace, cache, rng):
        service = SolverService()
        fp = service.register(laplace.a)
        r1 = service.solve(SolveRequest(
            rhs=laplace.b, matrix_fingerprint=fp, partition=(2, 2, 1),
        ))
        clock_after_first = service.clock
        r2 = service.solve(SolveRequest(
            rhs=laplace.b + 1.0, matrix_fingerprint=fp, partition=(2, 2, 1),
        ))
        second_secs = service.clock - clock_after_first
        # the repeat pays no setup: strictly cheaper than the first
        assert second_secs < r1.service_seconds
        assert r2.service_seconds == pytest.approx(second_secs)
        pooled = next(iter(service.pool._sessions.values()))
        assert pooled.setups == 1
        service.close()


class TestMatrixMarketIngestion:
    def test_register_mtx_and_solve_by_fingerprint(self, laplace, cache, tmp_path):
        """An operator ingested from disk serves fingerprint-only
        requests exactly like one registered in memory -- including with
        the fully algebraic spectral coarse space, which needs neither
        coordinates nor a null space."""
        from repro.api import SchwarzConfig
        from repro.io import write_matrix_market

        path = tmp_path / "op.mtx"
        write_matrix_market(path, laplace.a)
        service = SolverService()
        fp = service.register_matrix_market(path)
        resp = service.solve(SolveRequest(
            rhs=laplace.b, matrix_fingerprint=fp, tenant="mm",
            partition=(2, 2, 1),
            config=SchwarzConfig(coarse_space="spectral", tau=0.1),
        ))
        assert resp.status is SolveStatus.CONVERGED
        assert resp.converged
        r = laplace.b - laplace.a @ resp.x
        assert np.linalg.norm(r) / np.linalg.norm(laplace.b) < 1e-6
        service.close()

    def test_register_mtx_rejects_nonsquare(self, cache, tmp_path):
        from repro.io import write_matrix_market
        from repro.sparse import CsrMatrix

        path = tmp_path / "rect.mtx"
        write_matrix_market(
            path, CsrMatrix.from_dense(np.ones((3, 2)))
        )
        with pytest.raises(ValueError, match="square"):
            SolverService().register_matrix_market(path)

    def test_register_mtx_rejects_bad_dofs(self, laplace, cache, tmp_path):
        from repro.io import write_matrix_market

        path = tmp_path / "op.mtx"
        write_matrix_market(path, laplace.a)
        with pytest.raises(ValueError, match="divisible"):
            SolverService().register_matrix_market(path, dofs_per_node=7)


class TestOperatorExtras:
    """One pattern, one set of extras: a request may not swap them.

    The pooled session of a pattern is built from the registered
    operator's coordinates and ``dofs_per_node``; a scalar request on
    the same matrix used to be served with the rigid-body modes of an
    earlier elasticity request.
    """

    def test_matrix_request_with_other_extras_raises(self, elasticity, cache):
        service = SolverService()
        first = SolveRequest(
            rhs=elasticity.b, matrix=elasticity.a, partition=(2, 2, 1),
            coordinates=elasticity.coordinates, dofs_per_node=3,
        )
        assert service.solve(first).converged
        scalar = dataclasses.replace(first, coordinates=None, dofs_per_node=1)
        with pytest.raises(OperatorConflictError, match="dofs_per_node=1"):
            service.submit(scalar)
        moved = dataclasses.replace(first, coordinates=elasticity.coordinates + 1.0)
        with pytest.raises(OperatorConflictError, match="coordinates"):
            service.submit(moved)
        # matching extras share the pooled session, new values included
        assert service.solve(dataclasses.replace(first, tenant="b")).converged
        rescaled = dataclasses.replace(first, matrix=elasticity.a * 2.0)
        assert service.solve(rescaled).converged
        assert len(service.pool) == 1
        service.close()

    def test_register_with_other_extras_raises(self, elasticity, cache):
        service = SolverService()
        fp = service.register(
            elasticity.a, coordinates=elasticity.coordinates, dofs_per_node=3
        )
        with pytest.raises(OperatorConflictError, match="dofs_per_node=1"):
            service.register(elasticity.a)
        assert service.register(
            elasticity.a * 2.0, coordinates=elasticity.coordinates, dofs_per_node=3
        ) == fp
        # a fingerprint request is served with the registered extras
        resp = service.solve(SolveRequest(
            rhs=elasticity.b, matrix_fingerprint=fp, partition=(2, 2, 1),
        ))
        assert resp.converged
        service.close()
