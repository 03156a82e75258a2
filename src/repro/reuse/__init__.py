"""Amortized-setup solve sequences: pattern-keyed artifact reuse.

The paper splits solver setup into a one-time symbolic phase (a) and a
repeated numeric phase (b): Tacho and the ILU variants reuse (a) across
refactorizations while SuperLU cannot (``symbolic_reusable``).  The cost
model has always *priced* this split
(:class:`~repro.runtime.timings.SolverTimings.first_setup_seconds` vs
``setup_seconds``); this package makes the stack *execute* it:

* :mod:`repro.reuse.fingerprint` -- pattern/values fingerprints keying
  every reuse decision, and the :class:`PatternChangedError` guard that
  keeps a stale symbolic phase from silently corrupting factors;
* :mod:`repro.reuse.cache` -- the LRU-bounded ambient
  :class:`ArtifactCache` of pattern-keyed plans (decomposition, overlap
  import, interface analysis) shared across sessions;
* :mod:`repro.reuse.symbolic` -- one symbolic analysis per distinct
  ``(solver, ordering, options, pattern)`` *within* a build: congruent
  subdomains share an immutable symbolic record.

Every session reuses through :meth:`~repro.api.SolverSession.resolve`
and :meth:`~repro.api.SolverSession.solve_sequence`, bit-identically to
cold solves; there is no knob.

The k-solve sequence benchmark behind ``BENCH_reuse.json`` runs as
``python -m repro reuse`` (see :mod:`repro.reuse.bench`).
"""

from __future__ import annotations

from repro.reuse.cache import (
    ArtifactCache,
    LruDict,
    get_artifact_cache,
    set_artifact_cache,
    use_artifact_cache,
)
from repro.reuse.fingerprint import (
    PatternChangedError,
    check_same_pattern,
    partition_fingerprint,
    pattern_fingerprint,
    values_fingerprint,
)
from repro.reuse.symbolic import shared_symbolic

__all__ = [
    "ArtifactCache",
    "LruDict",
    "get_artifact_cache",
    "set_artifact_cache",
    "use_artifact_cache",
    "PatternChangedError",
    "check_same_pattern",
    "pattern_fingerprint",
    "values_fingerprint",
    "partition_fingerprint",
    "shared_symbolic",
]
