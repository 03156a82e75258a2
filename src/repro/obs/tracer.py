"""Hierarchical span tracer and metrics registry.

The paper's entire contribution is a set of timing/counter breakdowns
(Tables II-VII, Figs. 4-5): setup vs. apply vs. reduction phases, per
rank, per kernel family.  This module provides the measurement
substrate those tables are derived from:

* :class:`Span` -- one node of a trace tree: a named phase with wall
  time, an optional modeled cost (priced via :mod:`repro.machine`),
  accumulated flop/byte/launch counters, rank attribution, and the
  :class:`~repro.machine.kernels.KernelProfile` leaf events it covers.
* :class:`Tracer` -- the ambient recorder: nested ``with
  tracer.span("setup/local_factor", rank=r):`` blocks build the tree;
  ``tracer.count("reduces")`` tallies events onto the active span.
* :class:`NullTracer` -- the module-level default.  Its ``span`` method
  returns one shared no-op object, so the untraced hot path performs no
  allocation per call.
* :class:`TracerReduceCounter` -- the global-reduction counter the
  Krylov solvers take from the ambient tracer; it counts locally
  (:class:`repro.krylov.reduce.ReduceCounter` is its untraced form) and
  tallies ``reduces``/``reduce_doubles`` onto the active span.

Span taxonomy (the names the instrumented stack emits)::

    setup/overlap        setup/local_factor   setup/coarse_basis
    setup/spgemm         setup/coarse_factor
    apply/local_solve    apply/coarse_solve
    krylov/spmv          krylov/orth          krylov/allreduce
    factor/symbolic      factor/numeric       comm/message
    reuse/skip_setup     reuse/refactor       reuse/local_refactor
    reuse/extension_refactor  reuse/coarse_refactor
    reuse/spectral_reuse reuse/spectral_rebuild
    serve/batch          serve/solve
    serve/admit          serve/shed           serve/retry
    serve/degrade
    ft/precond_repair    elastic/scale_around

Counters use fixed keys: ``flops``, ``bytes``, ``launches`` (from
kernel profiles), ``reduces``, ``reduce_doubles`` (global reductions),
``messages``, ``bytes_sent`` (point-to-point traffic), and on the
serving spans ``batch_width``, ``block_width`` and
``queue_wait_seconds`` (request queueing against the modeled clock).
The SLO-guard spans count ``admitted``, ``shed``, ``retries`` and
``degraded_batches``; ``serve/shed`` annotates the shed reason and
``serve/degrade`` the ladder rungs and pressure that triggered them.
The elastic runtime adds ``reuse_invalidations`` (repartition dropping
a pinned artifact), and on the ``elastic/scale_around`` span
``repartition_seconds`` and the scale-decision annotations (rank,
reason, projected relief).
Every solver ``symbolic()`` call counts one ``symbolic_shared`` (an
existing record was taken from the ambient cache's symbolic store) or
``symbolic_analysed`` (the analysis ran) onto the span it runs under.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "TracerReduceCounter",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


class Span:
    """One node of a trace tree.

    Attributes
    ----------
    name:
        Hierarchical phase name, e.g. ``"setup/local_factor"``.
    rank:
        MPI-rank attribution (None for rank-agnostic phases).
    t0, t1:
        Wall-clock enter/exit stamps (``time.perf_counter`` seconds);
        None for purely modeled spans built by the pricing layer.
    modeled_seconds:
        Model-predicted cost of this span (via :mod:`repro.machine`
        pricing); None when no cost model was attached.
    counters:
        Accumulated event tallies (flops, bytes, reduces, ...), local
        to this span; use :meth:`total` for subtree sums.
    profile:
        The :class:`~repro.machine.kernels.KernelProfile` leaf events
        this span covers (populated by :meth:`add_profile`).
    annotations:
        Free-form metadata (e.g. a solver description string).
    """

    __slots__ = (
        "name",
        "rank",
        "t0",
        "t1",
        "children",
        "counters",
        "profile",
        "modeled_seconds",
        "annotations",
    )

    def __init__(self, name: str, rank: Optional[int] = None) -> None:
        self.name = name
        self.rank = rank
        self.t0: Optional[float] = None
        self.t1: Optional[float] = None
        self.children: List["Span"] = []
        self.counters: Dict[str, float] = {}
        self.profile = None  # lazily a KernelProfile
        self.modeled_seconds: Optional[float] = None
        self.annotations: Dict[str, Any] = {}

    # -- construction --------------------------------------------------
    def child(self, name: str, rank: Optional[int] = None) -> "Span":
        """Append and return a child span (no clock involved)."""
        sp = Span(name, rank=rank)
        self.children.append(sp)
        return sp

    def count(self, key: str, value: float = 1.0) -> None:
        """Add ``value`` to this span's ``key`` counter."""
        self.counters[key] = self.counters.get(key, 0.0) + value

    def add_profile(self, profile) -> None:
        """Attach kernel leaf events; accumulates flop/byte/launch counters."""
        if profile is None or not len(profile):
            return
        if self.profile is None:
            from repro.machine.kernels import KernelProfile

            self.profile = KernelProfile()
        self.profile.extend(profile)
        self.count("flops", profile.total_flops)
        self.count("bytes", profile.total_bytes)
        self.count("launches", float(profile.total_launches))

    def annotate(self, **kv: Any) -> None:
        """Attach free-form metadata."""
        self.annotations.update(kv)

    # -- queries -------------------------------------------------------
    @property
    def wall_seconds(self) -> Optional[float]:
        """Wall time spent inside this span (None for modeled spans)."""
        if self.t0 is None or self.t1 is None:
            return None
        return self.t1 - self.t0

    def walk(self) -> Iterator["Span"]:
        """Yield this span and all descendants (pre-order)."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, prefix: str) -> List["Span"]:
        """All spans in the subtree whose name starts with ``prefix``."""
        return [s for s in self.walk() if s.name.startswith(prefix)]

    def total(self, key: str, prefix: str = "") -> float:
        """Subtree sum of one counter, optionally filtered by name prefix."""
        return sum(
            s.counters.get(key, 0.0)
            for s in self.walk()
            if s.name.startswith(prefix)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wall = self.wall_seconds
        parts = [self.name]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if wall is not None:
            parts.append(f"wall={wall:.3e}s")
        if self.modeled_seconds is not None:
            parts.append(f"model={self.modeled_seconds:.3e}s")
        return f"<Span {' '.join(parts)} children={len(self.children)}>"


class _SpanContext:
    """Context manager pushing one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._span.t0 = self._tracer._clock()
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._span.t1 = self._tracer._clock()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Ambient recorder of a hierarchical span trace.

    Parameters
    ----------
    clock:
        Monotonic timestamp source (``time.perf_counter`` by default;
        tests inject deterministic clocks).

    Usage::

        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("setup"):
                ...   # instrumented code opens nested spans
        tracer.root.find("setup/local_factor")
        tracer.total("reduces")
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.root = Span("trace")
        self.root.t0 = clock()
        self._stack: List[Span] = [self.root]
        #: optional ``values -> values`` route every counted reduction
        #: passes through first (the rank-loss driver sends them over
        #: its fault-tolerant communicator); None counts only
        self.reduce_via = None

    # -- recording -----------------------------------------------------
    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    def span(self, name: str, rank: Optional[int] = None) -> _SpanContext:
        """Open a child span of the current span (use as ``with``)."""
        return _SpanContext(self, self.current.child(name, rank=rank))

    def count(self, key: str, value: float = 1.0) -> None:
        """Tally one event onto the active span."""
        self.current.count(key, value)

    def add_profile(self, profile) -> None:
        """Attach kernel leaf events to the active span."""
        self.current.add_profile(profile)

    def reduce_counter(self) -> "TracerReduceCounter":
        """A reduction counter bound to this tracer (the replacement for
        passing a bare ``ReduceCounter`` into the Krylov solvers)."""
        return TracerReduceCounter(self)

    def finish(self) -> Span:
        """Stamp the root span's exit time and return it."""
        self.root.t1 = self._clock()
        return self.root

    # -- queries -------------------------------------------------------
    def total(self, key: str, prefix: str = "") -> float:
        """Whole-trace sum of one counter (see :meth:`Span.total`)."""
        return self.root.total(key, prefix)

    @property
    def reduces(self) -> int:
        """Total global reductions recorded."""
        return int(self.total("reduces"))

    @property
    def reduce_doubles(self) -> int:
        """Total float64 values carried by recorded reductions."""
        return int(self.total("reduce_doubles"))


class _NullSpan:
    """Shared no-op span: every method does nothing, ``with`` works."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, key: str, value: float = 1.0) -> None:
        pass

    def add_profile(self, profile) -> None:
        pass

    def annotate(self, **kv: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default, disabled tracer.

    Every call is a no-op; :meth:`span` returns one shared object, so
    instrumented hot paths (``with get_tracer().span(...)``) allocate
    nothing when tracing is off.
    """

    __slots__ = ()
    reduce_via = None

    def span(self, name: str, rank: Optional[int] = None) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def count(self, key: str, value: float = 1.0) -> None:
        pass

    def add_profile(self, profile) -> None:
        pass

    def reduce_counter(self) -> "TracerReduceCounter":
        return TracerReduceCounter(self)


NULL_TRACER = NullTracer()
_CURRENT: Any = NULL_TRACER


def get_tracer():
    """The ambient tracer (the shared :data:`NULL_TRACER` by default)."""
    return _CURRENT


def set_tracer(tracer) -> None:
    """Install ``tracer`` as the ambient tracer (None restores the null)."""
    global _CURRENT
    _CURRENT = NULL_TRACER if tracer is None else tracer


@contextmanager
def use_tracer(tracer):
    """Scope ``tracer`` as the ambient tracer, restoring the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = NULL_TRACER if tracer is None else tracer
    try:
        yield tracer
    finally:
        _CURRENT = previous


class TracerReduceCounter:
    """Global-reduction pass-through counter bound to a tracer.

    Interface-compatible with :class:`repro.krylov.reduce.ReduceCounter`
    (``allreduce``/``count``/``doubles``/``reset``); additionally
    tallies ``reduces``/``reduce_doubles`` onto the tracer's active
    span, which is how the trace attributes reductions to the phase
    (``krylov/orth``, ``apply/coarse_solve``, ...) that issued them.
    """

    __slots__ = ("tracer", "count", "doubles")

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.count = 0
        self.doubles = 0

    def allreduce(self, values: np.ndarray) -> np.ndarray:
        """Record one global reduction of ``values`` (returned unchanged)."""
        values = np.atleast_1d(np.asarray(values))
        t = self.tracer
        if t.reduce_via is not None:
            values = t.reduce_via(values)
        self.count += 1
        self.doubles += int(values.size)
        t.count("reduces", 1.0)
        t.count("reduce_doubles", float(values.size))
        return values

    def reset(self) -> None:
        """Zero the local counters (the trace keeps its tallies)."""
        self.count = 0
        self.doubles = 0
