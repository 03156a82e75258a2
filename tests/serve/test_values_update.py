"""A values update on a registered pattern is a numeric refactorization.

``SolverService.register(a_new)`` on a known pattern used to trigger a
cold ``build_preconditioner()`` while the modeled clock billed a
numeric-only setup.  The pool now asks the session's own reuse ladder,
so the executed work is what :meth:`SolverSession.resolve` executes --
and an elastic repartition survives the update.
"""

import numpy as np
import pytest

from repro import KrylovConfig, SchwarzConfig, SolverSession, Tracer, use_tracer
from repro.api import AlgebraicProblem
from repro.dd.local_solvers import LocalSolverSpec
from repro.fem import laplace_3d
from repro.krylov import SolveStatus
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import SolveRequest, SolverService
from repro.serve.batcher import shard_key
from repro.sparse.csr import CsrMatrix

PARTITION = (2, 2, 1)


@pytest.fixture(scope="module")
def operators():
    a = laplace_3d(5, 5, 5).a
    rng = np.random.default_rng(11)
    a_new = CsrMatrix(a.indptr.copy(), a.indices.copy(), 1.07 * a.data, a.shape)
    return a, a_new, rng.standard_normal((a.n_rows, 2))


def _request(fp, rhs, config):
    return SolveRequest(
        rhs=rhs, matrix_fingerprint=fp, partition=PARTITION, config=config,
        krylov=KrylovConfig(rtol=1e-9),
    )


def _serve_update(operators, config, **service_options):
    """Cold request, values update, second request; under one tracer."""
    a, a_new, rhs = operators
    tracer = Tracer()
    with use_artifact_cache(ArtifactCache()), use_tracer(tracer):
        service = SolverService(**service_options)
        fp = service.register(a)
        first = service.solve(_request(fp, rhs[:, 0], config))
        pooled = service.pool.get(shard_key(_request(fp, rhs[:, 0], config), fp))
        built = pooled.precond
        assert service.register(a_new) == fp
        second = service.solve(_request(fp, rhs[:, 1], config))
        service.close()
    return first, second, pooled, built, tracer


@pytest.mark.parametrize("kind", ("tacho", "superlu"))
def test_update_response_is_what_resolve_returns(operators, kind):
    a, a_new, rhs = operators
    config = SchwarzConfig(local=LocalSolverSpec(kind=kind, ordering="nd"))
    first, second, pooled, built, tracer = _serve_update(operators, config)

    with use_artifact_cache(ArtifactCache()):
        session = SolverSession(
            AlgebraicProblem(a, rhs[:, 0]), partition=PARTITION, config=config,
            krylov=KrylovConfig(rtol=1e-9),
        )
        cold = session.solve()
        updated = session.resolve(b=rhs[:, 1], a_new=a_new)
    assert updated.setup_reused
    for resp, ref in ((first, cold), (second, updated)):
        assert resp.status is SolveStatus.CONVERGED
        assert np.array_equal(resp.x, ref.x)
        assert resp.iterations == ref.iterations
        assert resp.residual_norms == ref.residual_norms

    # the update was a refactorization of the SAME operator, and counted
    assert pooled.setups == 2
    assert pooled.precond is built
    assert len(tracer.root.find("reuse/refactor")) == 1
    assert len(tracer.root.find("setup/overlap")) == 1  # the cold build only
    # phase (a) is skipped exactly where the local solver allows it
    reused = {
        sp.annotations["reused_symbolic"]
        for sp in tracer.root.find("reuse/local_refactor")
    }
    assert reused == {kind == "tacho"}


def test_same_values_batches_still_skip_setup(operators):
    a, _, rhs = operators
    with use_artifact_cache(ArtifactCache()):
        service = SolverService()
        fp = service.register(a)
        for k in (0, 1):
            service.solve(_request(fp, rhs[:, k], SchwarzConfig()))
        (pooled,) = service.pool._sessions.values()
        assert pooled.setups == 1 and pooled.served == 2
        service.close()


def test_elastic_repartition_survives_a_values_update(operators):
    """Scale-around merges the straggler away; the update then
    refactorizes the repaired 3-subdomain operator instead of reverting
    the shard to its requested 4-subdomain partition."""
    from repro.elastic import ElasticConfig
    from repro.ft import StragglerPlan

    a, a_new, rhs = operators
    with use_artifact_cache(ArtifactCache()):
        service = SolverService(
            max_batch=2,
            elastic=ElasticConfig(cooldown_seconds=0.0),
            stragglers=StragglerPlan.single(1, 8.0),
        )
        fp = service.register(a)
        for _ in range(4):
            service.submit(_request(fp, rhs[:, 0], SchwarzConfig()))
        assert all(r.converged for r in service.drain())
        assert service.scale_arounds >= 1
        (pooled,) = service.pool._sessions.values()
        repaired = pooled.precond
        assert repaired.dec.n_subdomains == 3
        layouts = dict(service._shard_layouts)

        service.register(a_new)
        resp = service.solve(_request(fp, rhs[:, 1], SchwarzConfig()))
        assert resp.status is SolveStatus.CONVERGED
        assert pooled.precond is repaired
        assert pooled.precond.dec.n_subdomains == 3
        assert service._shard_layouts == layouts  # still priced on 3 ranks
        # and it is the NEW operator's solution
        r = rhs[:, 1] - a_new.matvec(resp.x)
        assert np.linalg.norm(r) <= 1e-8 * np.linalg.norm(rhs[:, 1])
        service.close()
