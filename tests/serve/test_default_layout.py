"""The default service layout against a partition of another rank count.

``SolverService()`` prices batches under a 4-rank layout.  With an
8-subdomain request the first request of a shard used to come back
``failed`` (``ValueError: layout has 4 ranks but the decomposition has 8
subdomains``, raised while pricing the setup) while later requests of
the same shard passed off the memoised preconditioner, which skips that
pricing call: a state-dependent failure.
"""

from __future__ import annotations

import numpy as np

from repro.fem import laplace_3d
from repro.krylov import SolveStatus
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import SolveRequest, SolverService


def test_first_and_second_request_of_a_shard_get_the_same_status(rng):
    p = laplace_3d(5)
    with use_artifact_cache(ArtifactCache()):
        service = SolverService()
        assert service.layout.n_ranks == 4
        fp = service.register(p.a)
        responses = []
        for i in range(2):
            service.submit(SolveRequest(
                rhs=p.b + 0.1 * i * rng.standard_normal(p.b.size),
                matrix_fingerprint=fp, tenant=f"t{i}", partition=(2, 2, 2),
            ))
            responses.extend(service.drain())
        service.close()
    assert [r.status for r in responses] == [SolveStatus.CONVERGED] * 2
    assert service.batch_failures == 0
    # both priced under the same (resized) layout: the second request
    # pays no setup, the first one does
    assert responses[0].service_seconds > responses[1].service_seconds > 0.0
    assert all(np.isfinite(r.final_relres) for r in responses)
