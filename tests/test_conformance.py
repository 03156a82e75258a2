"""One pipeline, one contract: every policy x entry point x verify.

The session runs ``solve()``, ``resolve()`` (skip and refactor rungs)
and every protection policy through the same prepare -> iterate ->
report path.  An *untriggered* policy must therefore be invisible in
the numerics and the counters, and every option (``verify=``, the
trace, setup reuse, the health report) must behave the same on every
path.  First slice of the shared conformance suite (ROADMAP 5b).
"""

import numpy as np
import pytest

from repro import KrylovConfig, SolverSession
from repro.fem import laplace_3d
from repro.ft import FaultToleranceConfig
from repro.resilience import ResilienceConfig
from repro.sparse.csr import CsrMatrix

POLICIES = {
    "none": lambda: None,
    "resilience": ResilienceConfig,
    "rank_loss": FaultToleranceConfig,
}
PATHS = ("solve", "skip", "refactor")


@pytest.fixture(scope="module")
def problem():
    return laplace_3d(4)


@pytest.fixture(scope="module")
def updates(problem):
    """A second right-hand side and a same-pattern, new-values matrix."""
    rng = np.random.default_rng(5)
    a = problem.a
    return (
        problem.b + 0.1 * rng.standard_normal(problem.b.size),
        CsrMatrix(a.indptr.copy(), a.indices.copy(), 1.05 * a.data, a.shape),
    )


def _run(problem, updates, path, policy, verify):
    """The last result of ``path``."""
    session = SolverSession(
        problem,
        partition=(2, 2, 1),
        krylov=KrylovConfig(rtol=1e-8),
        policy=policy,
        verify=verify,
    )
    result = session.solve()
    if path != "solve":
        b2, a2 = updates
        result = session.resolve(
            b=b2, a_new=a2 if path == "refactor" else None
        )
    return result


@pytest.fixture(scope="module")
def plain(problem, updates):
    """The unprotected, unverified run of every path."""
    return {
        path: _run(problem, updates, path, None, False) for path in PATHS
    }


@pytest.mark.parametrize("verify", (False, True), ids=("plain", "verify"))
@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_untriggered_policy_is_invisible_on_every_path(
    problem, updates, plain, policy, path, verify
):
    result = _run(problem, updates, path, POLICIES[policy](), verify)
    ref = plain[path]
    # numerics and counters: bit-equal to the plain run of the same path
    assert np.array_equal(result.x, ref.x)
    assert result.iterations == ref.iterations
    assert result.residual_norms == ref.residual_norms
    assert result.reduces == ref.reduces
    assert result.reduce_doubles == ref.reduce_doubles
    assert result.converged and str(result.status) == "converged"
    # every option behaves the same on every path
    assert (result.health is not None) == (policy != "none")
    assert (result.ft is not None) == (policy == "rank_loss")
    assert (result.verification is not None) == verify
    assert result.setup_reused == (path != "solve")
    # each solve records its own trace
    assert int(result.trace.total("reduces")) == result.reduces
    assert {c.name for c in result.trace.children} >= {"setup", "krylov"}


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_reuse_rungs_skip_the_cold_build(problem, updates, policy):
    """A re-solve must not rebuild, whatever policy guards it."""
    session = SolverSession(
        problem, partition=(2, 2, 1), policy=POLICIES[policy]()
    )
    first = session.solve()
    operator = session.operator
    for a_new, rung in ((None, "reuse/skip_setup"), (updates[1], "reuse/refactor")):
        again = session.resolve(b=updates[0], a_new=a_new)
        assert session.operator is operator
        assert again.trace.find(rung)
        assert not again.trace.find("setup/overlap")
    assert first.trace.find("setup/overlap")
