"""Pattern-keyed artifact cache with an LRU bound.

:class:`ArtifactCache` maps reuse keys (tuples built from
:mod:`repro.reuse.fingerprint` digests plus configuration) to setup
artifacts that are pure functions of the key: decomposition plans,
overlap import plans, interface analyses.  Hits and misses are tallied
as ``reuse_hits``/``reuse_misses`` counters on the ambient
:class:`~repro.obs.tracer.Tracer`, so a traced solve shows exactly
which artifacts were reused.

:class:`LruDict` is the bound-enforcing mapping underneath; it is also
what bounds the benchmark harness' problem/numerics memoization (the
former unbounded module-global dicts).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, Optional

from repro.obs import get_tracer

__all__ = [
    "LruDict",
    "ArtifactCache",
    "get_artifact_cache",
    "set_artifact_cache",
    "use_artifact_cache",
]


class LruDict:
    """A dict bounded to ``maxsize`` entries with LRU eviction.

    Reads (``get``/``__getitem__``/``__contains__``-then-read idiom)
    refresh recency; inserting past the bound evicts the least recently
    used entry.  The interface is the small subset the harness and the
    artifact cache need -- not a full MutableMapping.

    ``can_evict`` (optional) vetoes eviction per key: an insertion past
    the bound evicts the least recently used *evictable* entry.  When
    every entry is vetoed the mapping temporarily exceeds ``maxsize``
    rather than dropping an in-use value -- the pin-while-in-use
    contract interleaved solver sessions rely on.
    """

    def __init__(
        self,
        maxsize: int,
        can_evict: Optional[Callable[[Hashable], bool]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._can_evict = can_evict
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __getitem__(self, key: Hashable) -> Any:
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) <= self.maxsize:
            return
        # evict least-recently-used entries the veto allows; a fully
        # pinned mapping stays over the bound instead of dropping an
        # entry another in-flight session still holds
        for k in list(self._data.keys()):
            if len(self._data) <= self.maxsize:
                break
            if k is key or (self._can_evict is not None
                            and not self._can_evict(k)):
                continue
            del self._data[k]

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._data:
            return self[key]
        return default

    def keys(self):
        return self._data.keys()

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return ``key``'s value (``default`` when absent).

        Removal ignores the ``can_evict`` veto: this is an explicit
        deletion by a caller that knows the entry is wrong, not an LRU
        capacity eviction.
        """
        return self._data.pop(key, default)

    def clear(self) -> None:
        self._data.clear()


class ArtifactCache:
    """LRU-bounded cache of pattern-keyed setup artifacts.

    ``get`` emits a ``reuse_hits``/``reuse_misses`` counter (keyed by
    the artifact family, the first element of the key tuple) onto the
    ambient tracer; ``put`` stores under the LRU bound.  Values must be
    treated as immutable by all users -- the same object is handed to
    every hit.

    Interleaved sessions sharing one cache guard their artifacts with
    :meth:`pin`/:meth:`unpin` (or the :meth:`pinned` scope): a pinned
    key is never LRU-evicted, so session A's ``resolve`` filling the
    cache cannot drop the decomposition session B is mid-solve on.
    Pins are refcounts -- a key pinned twice needs two unpins -- and may
    be taken before the artifact is ``put`` (the pool pins the key it is
    *about* to build).  While every entry is pinned the cache may
    temporarily exceed ``maxsize``.

    ``symbolic`` is a separate, *weak* store of solver symbolic records
    (see :mod:`repro.reuse.symbolic`): outside the LRU bound, outside
    the hit/miss tallies, and empty again once no solver holds a record.
    """

    def __init__(self, maxsize: int = 32) -> None:
        self._pins: Dict[tuple, int] = {}
        self._lru = LruDict(maxsize, can_evict=self._evictable)
        self.symbolic: "weakref.WeakValueDictionary[tuple, Any]" = (
            weakref.WeakValueDictionary()
        )
        self.hits = 0
        self.misses = 0

    def _evictable(self, key: Hashable) -> bool:
        return self._pins.get(key, 0) == 0

    @property
    def maxsize(self) -> int:
        """The LRU bound (entries, not bytes)."""
        return self._lru.maxsize

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: tuple) -> Optional[Any]:
        """Look up an artifact; None on miss.  Counts onto the tracer."""
        value = self._lru.get(key)
        tr = get_tracer()
        if value is None:
            self.misses += 1
            tr.count("reuse_misses")
        else:
            self.hits += 1
            tr.count("reuse_hits")
        return value

    def put(self, key: tuple, value: Any) -> Any:
        """Store an artifact (evicting LRU past the bound); returns it."""
        self._lru[key] = value
        return value

    def keys(self):
        """Snapshot of the cached keys, LRU order (oldest first)."""
        return self._lru.keys()

    # -- pin-while-in-use ------------------------------------------------
    def pin(self, key: tuple) -> None:
        """Hold ``key`` against LRU eviction (refcounted).

        Pinning a key that is not cached yet is allowed: the holder is
        declaring intent to build-and-put it without losing it to a
        concurrent session's fills in between.
        """
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: tuple) -> None:
        """Release one :meth:`pin` hold on ``key``."""
        count = self._pins.get(key, 0)
        if count <= 0:
            raise ValueError(f"unpin without matching pin for key {key!r}")
        if count == 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1

    def pin_count(self, key: tuple) -> int:
        """Current refcount holding ``key`` (0 when unpinned)."""
        return self._pins.get(key, 0)

    @contextmanager
    def pinned(self, key: tuple) -> Iterator[None]:
        """Scope one pin on ``key`` (unpins on exit, even on error)."""
        self.pin(key)
        try:
            yield
        finally:
            self.unpin(key)

    def invalidate(self, key: tuple) -> bool:
        """Drop ``key``'s cached artifact even while pinned.

        Pins guard keys against *capacity* eviction; they do not make a
        value correct.  When a repartition (merge/split) changes the
        artifact a key's holder must see, the stale value has to go
        regardless of refcounts -- the holder re-pins the new
        fingerprint key and puts the repaired artifact there.  Pins on
        ``key`` are left intact (they still guard the key for a
        rebuild-and-put).  Returns whether a value was actually dropped,
        and counts ``reuse_invalidations`` onto the tracer when one was.
        """
        sentinel = object()
        dropped = self._lru.pop(key, sentinel) is not sentinel
        if dropped:
            get_tracer().count("reuse_invalidations")
        return dropped

    def clear(self) -> None:
        """Drop every cached artifact and reset the hit/miss tallies.

        Pins survive a ``clear`` -- they guard *keys*, not values, and
        the holder's subsequent rebuild-and-put is still protected.
        """
        self._lru.clear()
        self.symbolic.clear()
        self.hits = 0
        self.misses = 0


_DEFAULT_CACHE = ArtifactCache()
_current: ArtifactCache = _DEFAULT_CACHE


def get_artifact_cache() -> ArtifactCache:
    """The ambient artifact cache consulted by the setup paths."""
    return _current


def set_artifact_cache(cache: ArtifactCache) -> None:
    """Replace the ambient artifact cache."""
    global _current
    _current = cache


@contextmanager
def use_artifact_cache(cache: ArtifactCache) -> Iterator[ArtifactCache]:
    """Scope an artifact cache (tests isolate hit/miss tallies this way)."""
    global _current
    prev = _current
    _current = cache
    try:
        yield cache
    finally:
        _current = prev
