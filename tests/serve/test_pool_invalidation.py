"""Artifact invalidation when a pooled session adopts a repartition."""

from repro.fem import laplace_3d
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.serve import SolveRequest, SolverService


class _FakeDec:
    def __init__(self, tag):
        self.tag = tag


class _FakePrecond:
    def __init__(self, tag):
        self.dec = _FakeDec(tag)


class _FakeSession:
    """The slice of SolverSession the pool talks to: the session owns
    the operator and the fingerprints it was prepared for."""

    def __init__(self, operator, values_fp):
        self.operator = operator
        self.values_fp = values_fp

    def adopt(self, operator):
        self.operator = operator


class TestInvalidate:
    def test_invalidate_drops_value_even_when_pinned(self):
        cache = ArtifactCache()
        key = ("decomposition", "fp", (2, 2, 1))
        cache.pin(key)
        cache.put(key, "stale-partition")
        assert cache.invalidate(key)
        assert cache.get(key) is None
        # the pin guards the KEY against capacity eviction, not the
        # value: it survives the invalidation for the replacement
        assert cache.pin_count(key) == 1

    def test_invalidate_missing_key_is_false(self):
        cache = ArtifactCache()
        assert not cache.invalidate(("decomposition", "nope", ()))


class TestAdoptRepartition:
    def _pooled(self, cache):
        from repro.serve.pool import SessionPool

        pool = SessionPool()
        with use_artifact_cache(cache):
            pooled = pool.acquire(
                ("fp", (2, 2, 1), "cfg"),
                lambda: _FakeSession(_FakePrecond("old"), "values"),
            )
        return pool, pooled

    def test_old_artifact_invalidated_new_key_pinned(self):
        cache = ArtifactCache()
        pool, pooled = self._pooled(cache)
        old_key = pooled.pin_key
        cache.put(old_key, "old-partition")
        new_key = ("decomposition", "fp", "repart-fingerprint")
        pooled.adopt_repartition(_FakePrecond("new"), new_key)
        assert cache.get(old_key) is None
        assert cache.pin_count(old_key) == 0
        assert cache.pin_count(new_key) == 1
        assert cache.get(new_key).tag == "new"
        assert pooled.precond.dec.tag == "new"
        # values did not change: the session keeps its fingerprints
        assert pooled.session.values_fp == "values"
        pool.close()
        assert cache.pin_count(new_key) == 0

    def test_same_key_adoption_keeps_single_pin(self):
        cache = ArtifactCache()
        pool, pooled = self._pooled(cache)
        pooled.adopt_repartition(_FakePrecond("new"), pooled.pin_key)
        assert cache.pin_count(pooled.pin_key) == 1
        pool.close()


class TestServiceRepartitionInvalidation:
    def test_scale_around_swaps_the_cached_decomposition(self):
        from repro.elastic import ElasticConfig
        from repro.ft import StragglerPlan

        problem = laplace_3d(5, 5, 5)
        cache = ArtifactCache()
        with use_artifact_cache(cache):
            service = SolverService(
                layout=None,
                max_batch=2,
                elastic=ElasticConfig(cooldown_seconds=0.0),
                stragglers=StragglerPlan.single(1, 8.0),
            )
            fp = service.register(problem.a)
            for _ in range(4):
                service.submit(
                    SolveRequest(
                        rhs=problem.b, matrix_fingerprint=fp,
                        partition=(2, 2, 1),
                    )
                )
            from repro.krylov.status import SolveStatus

            responses = service.drain()
            assert all(r.status is SolveStatus.CONVERGED for r in responses)
            assert service.scale_arounds >= 1
            keys = [
                k for k in cache.keys() if k and k[0] == "decomposition"
            ]
            # only the repaired partition's artifact remains published
            assert len(keys) == 1
            dec = cache.get(keys[0])
            assert dec.n_subdomains == 3
            service.close()


def test_cache_keys_helper_exists():
    # guard for the keys() iteration the service test relies on
    cache = ArtifactCache()
    cache.put(("a",), 1)
    assert list(cache.keys()) == [("a",)]
