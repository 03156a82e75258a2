"""Symbolic analysis once per distinct pattern.

A solver's symbolic phase (ordering, elimination tree, fill pattern,
supernode partition, sweep plan) is a pure function of the solver's
pattern-affecting options and the matrix *pattern*.  A box partition
produces congruent subdomains -- the same local pattern after the local
numbering -- so the P local solvers, the P interior solvers of the
coarse-basis extension and the coarse solver of one build ask for far
fewer distinct analyses than they make ``symbolic()`` calls.

:func:`shared_symbolic` is the one lookup behind every ``symbolic()``:
the result of an analysis is an immutable *symbolic record* (one small
frozen dataclass per solver) that any number of solver objects hold at
once and none ever writes to.  The store hangs off the ambient
:class:`~repro.reuse.cache.ArtifactCache` -- a fresh cache is cold --
and holds records *weakly*: a record lives exactly as long as some
solver refers to it, so the store retains nothing once the solvers die
and never competes with the decomposition / overlap / interface
artifacts for the cache's LRU slots.  For the same reason a lookup is
not an artifact hit or miss (``ArtifactCache.hits`` / ``misses`` do not
move); the ambient tracer counts ``symbolic_shared`` and
``symbolic_analysed`` instead.
"""

from __future__ import annotations

from typing import Callable, Tuple, TypeVar

import numpy as np

from repro.obs import get_tracer
from repro.reuse.cache import get_artifact_cache
from repro.reuse.fingerprint import pattern_fingerprint

__all__ = ["shared_symbolic", "frozen_arrays"]

R = TypeVar("R")


def shared_symbolic(key: tuple, a, analyse: Callable[[], R]) -> Tuple[R, str]:
    """The symbolic record for ``key`` over ``a``'s pattern, and the stamp.

    ``key`` is ``(solver kind, canonical ordering, *pattern-affecting
    options)``; the pattern fingerprint of ``a`` completes it.  On a
    miss ``analyse()`` runs and its record is stored (weakly); on a hit
    the stored record is returned as is.  The fingerprint is returned
    too, because every solver stamps it for its numeric-phase guard.
    """
    fp = pattern_fingerprint(a)
    store = get_artifact_cache().symbolic
    key = key + (fp,)
    record = store.get(key)
    if record is None:
        record = store[key] = analyse()
        get_tracer().count("symbolic_analysed")
    else:
        get_tracer().count("symbolic_shared")
    return record, fp


def frozen_arrays(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays`` marked read-only: what a symbolic record is made of."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays
