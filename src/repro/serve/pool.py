"""The shard-keyed :class:`~repro.api.SolverSession` pool.

One pooled session per shard (pattern fingerprint + partition + config
identity).  The pool:

* builds sessions lazily through a caller-supplied factory and bounds
  the live set with LRU eviction;
* **pins** each live shard's decomposition key
  (``("decomposition", pattern_fp, partition)``) in the ambient
  :class:`~repro.reuse.ArtifactCache` for as long as the session is
  pooled -- an interleaved tenant filling the cache cannot evict an
  artifact an in-flight session holds (the pin is taken *before* the
  first build, so the build-and-put itself is protected);
* asks the session's own reuse ladder
  (:meth:`~repro.api.SolverSession.prepare`) for each batch's
  preconditioner, so repeated same-values batches skip setup entirely
  and a same-pattern values update is a numeric refactorization --
  exactly what :meth:`~repro.api.SolverSession.resolve` does.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

from repro.api import SolverSession
from repro.reuse import get_artifact_cache

__all__ = ["PooledSession", "SessionPool"]


class PooledSession:
    """One shard's live solver state.

    Attributes
    ----------
    shard:
        The shard key this session serves.
    session:
        The underlying :class:`~repro.api.SolverSession`; it owns the
        preconditioner and the fingerprints it was prepared for.
    setups:
        How many preconditioner setups this session has paid (the first
        prices symbolic + numeric; later values updates numeric only).
    served:
        Requests served through this session.
    """

    __slots__ = ("shard", "session", "pin_key", "cache", "setups", "served")

    def __init__(
        self, shard: Tuple, session: SolverSession, pin_key: tuple, cache
    ) -> None:
        self.shard = shard
        self.session = session
        self.pin_key = pin_key
        # the cache the pin was taken on: unpin must hit the SAME cache
        # even if the ambient cache has been swapped since
        self.cache = cache
        self.setups = 0
        self.served = 0

    @property
    def precond(self):
        """The session's current preconditioner (None before first use)."""
        return self.session.operator

    def preconditioner_for(self, values_fp: str, problem) -> Tuple[object, bool]:
        """The preconditioner for one operator-values identity.

        Returns ``(precond, reused)``; ``reused`` means the session's
        ladder took the skip rung and no setup was paid.  The service
        holds both fingerprints already (the shard key leads with the
        pattern's), so nothing is hashed per batch.
        """
        self.session.problem = problem
        precond, rung = self.session.prepare(
            values_fp=values_fp, pattern_fp=self.shard[0]
        )
        if rung != "skip":
            self.setups += 1
        return precond, rung == "skip"

    def adopt_repartition(self, precond, new_pin_key: tuple) -> None:
        """Swap in an elastically repaired preconditioner.

        After a merge/split the decomposition the session serves is no
        longer the one its pin key names.  The swap (1) invalidates the
        old decomposition artifact -- pinned or not, it describes a
        partition this session will never serve again -- (2) pins and
        publishes the repaired decomposition under its own
        fingerprint key, and (3) releases the old pin.  The session
        keeps its fingerprints: the matrix values did not change, so
        the next same-values batch skips setup on the repaired
        preconditioner and a later values update refactorizes it.
        """
        self.cache.invalidate(self.pin_key)
        if new_pin_key != self.pin_key:
            self.cache.pin(new_pin_key)
            self.cache.unpin(self.pin_key)
            self.pin_key = new_pin_key
        self.cache.put(new_pin_key, precond.dec)
        self.session.adopt(precond)


class SessionPool:
    """LRU-bounded pool of :class:`PooledSession` objects keyed by shard.

    Eviction unpins the evicted shard's decomposition key; the artifact
    itself then lives or dies by the cache's own LRU policy.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._sessions: "OrderedDict[Tuple, PooledSession]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, shard: Tuple) -> bool:
        return shard in self._sessions

    def get(self, shard: Tuple) -> Optional[PooledSession]:
        """The pooled session for ``shard`` without building one.

        The elastic scaling policy peeks with this: a shard that has
        never been served has no session (and no utilization signal),
        so there is nothing to scale.  Recency is refreshed on hit.
        """
        pooled = self._sessions.get(shard)
        if pooled is not None:
            self._sessions.move_to_end(shard)
        return pooled

    def acquire(
        self,
        shard: Tuple,
        factory: Callable[[], SolverSession],
    ) -> PooledSession:
        """The pooled session for ``shard``, creating it on first use.

        The decomposition key is pinned before ``factory`` runs, so the
        session's very first ``build_preconditioner`` stores into a
        protected slot.
        """
        pooled = self._sessions.get(shard)
        if pooled is not None:
            self._sessions.move_to_end(shard)
            return pooled
        pattern_fp, partition = shard[0], shard[1]
        pin_key = ("decomposition", pattern_fp, partition)
        cache = get_artifact_cache()
        cache.pin(pin_key)
        try:
            session = factory()
        except BaseException:
            cache.unpin(pin_key)
            raise
        pooled = PooledSession(shard, session, pin_key, cache)
        self._sessions[shard] = pooled
        while len(self._sessions) > self.maxsize:
            _, evicted = self._sessions.popitem(last=False)
            evicted.cache.unpin(evicted.pin_key)
            self.evictions += 1
        return pooled

    def close(self) -> None:
        """Release every pooled session (and its artifact pin)."""
        for pooled in self._sessions.values():
            pooled.cache.unpin(pooled.pin_key)
        self._sessions.clear()
