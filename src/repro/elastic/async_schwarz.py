"""Bounded-staleness asynchronous restricted additive Schwarz.

A straggling rank delays every bulk-synchronous halo exchange: the
healthy ranks idle at the exchange until the slow rank's data arrives,
so the modeled iteration cost is the *straggler's* cost.  Asynchronous
RAS relaxes exactly this point: neighbors of the slow rank may proceed
with the data the slow rank published in an earlier iteration, up to a
staleness bound, after which a synchronous flush re-synchronizes
everyone.

:class:`BoundedStalenessSchwarz` realizes the numerical side as a
preconditioner wrapper: the dofs *owned by stale ranks* are substituted
from a snapshot of the input the last synchronous application saw --
the slow rank keeps contributing, but from data up to
``max_staleness`` applications old.  The preconditioner therefore
varies between applications, which plain (left-preconditioned) GMRES
does not tolerate; the :func:`repro.krylov.gmres.gmres` here is
right-preconditioned and stores the preconditioned directions
themselves (flexible-GMRES structure), so a per-application varying
operator is admissible.

:class:`StalenessGuard` is the watchdog: it rides the solver's
``guard`` hook and trips when the staleness budget is exhausted or the
residual stagnates while stale data is in play.  :func:`solve_async`
wires both together through the shared restart loop
(:func:`repro.krylov.driver.solve_with_restarts`): when the guard fires,
the recovery flushes, drops the staleness wrapper, and the loop resumes
bulk-synchronously with the residual target re-anchored.

Pricing: stale iterations exclude the stale ranks from the slowest-rank
max (``exclude_ranks=`` in
:func:`~repro.runtime.timings.block_iteration_seconds`); synchronous
iterations (and the flush) pay the straggler-inflated full max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.config import KrylovConfig
from repro.dd.wrapper import OperatorWrapper
from repro.krylov.driver import Protection, Repair, solve_with_restarts
from repro.krylov.status import SolveStatus
from repro.obs import get_tracer
from repro.resilience.detect import KrylovGuard
from repro.runtime.pricing import reduce_seconds
from repro.runtime.timings import block_iteration_seconds

__all__ = [
    "AsyncSolveResult",
    "BoundedStalenessSchwarz",
    "StalenessGuard",
    "async_solve_seconds",
    "solve_async",
]


class BoundedStalenessSchwarz(OperatorWrapper):
    """Schwarz apply variant tolerating stale data from slow ranks.

    Parameters
    ----------
    inner:
        The wrapped preconditioner (one- or two-level); profile
        accessors pass through, so the pricing layer sees the same
        kernels.
    stale_ranks:
        Subdomains whose halo data may lag (the straggler set).  Empty
        means every application is a plain synchronous pass-through --
        the wrapper is then bit-identical to ``inner``.
    max_staleness:
        How many applications a stale rank's data may lag before a
        synchronous flush is forced.  ``0`` disables staleness entirely.

    Attributes
    ----------
    stale_applies, sync_applies, flushes:
        Application counters; ``flushes`` counts only *forced* re-
        synchronizations (the first application is synchronous by
        necessity, not by force).
    """

    def __init__(
        self,
        inner,
        stale_ranks: Iterable[int],
        max_staleness: int = 2,
    ) -> None:
        if max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {max_staleness}")
        super().__init__(inner)
        self.stale_ranks = sorted({int(r) for r in stale_ranks})
        for r in self.stale_ranks:
            if not (0 <= r < inner.dec.n_subdomains):
                raise ValueError(
                    f"stale rank {r} out of range "
                    f"[0, {inner.dec.n_subdomains})"
                )
        self.max_staleness = int(max_staleness)
        self.stale_applies = 0
        self.sync_applies = 0
        self.flushes = 0
        self._snapshot: Optional[np.ndarray] = None
        self._age = 0
        dec = inner.dec
        if self.stale_ranks:
            node_mask = np.isin(dec.node_owner, self.stale_ranks)
            self._mask = np.repeat(node_mask, dec.dofs_per_node)
        else:
            self._mask = None

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drop the stale snapshot; the next application is synchronous."""
        self._snapshot = None
        self._age = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1} v`` with stale-rank dofs possibly lagging.

        Without stale ranks (or with ``max_staleness == 0``) this is a
        pure pass-through -- same floats, same op counts -- which is the
        bit-identity contract the no-trigger gate checks.
        """
        if self._mask is None or self.max_staleness < 1:
            return self.inner.apply(v)
        v = np.asarray(v, dtype=np.float64)
        if self._snapshot is None or self._age >= self.max_staleness:
            # synchronous pass: everyone sees current data, the stale
            # ranks publish their snapshot for the next applications
            if self._snapshot is not None:
                self.flushes += 1
            self._snapshot = v.copy()
            self._age = 0
            self.sync_applies += 1
            return self.inner.apply(v)
        self._age += 1
        self.stale_applies += 1
        v_eff = v.copy()
        v_eff[self._mask] = self._snapshot[self._mask]
        return self.inner.apply(v_eff)


#: stale applications a bounded-staleness solve may serve before the
#: guard forces the synchronous fallback
MAX_STALE_APPLIES = 200
#: stagnation window under staleness: tighter than the generic guard's,
#: since stagnation with stale data in play is expected to be the
#: staleness's fault (the reaction is a flush, not a solver fallback)
STALE_STALL_WINDOW = 30


class StalenessGuard(KrylovGuard):
    """Watchdog for a bounded-staleness solve (budget + stagnation).

    The shared :class:`~repro.resilience.detect.KrylovGuard` configured
    for staleness: while the residual is not improving and stale ranks
    are in play it reports

    * ``"staleness_budget"`` -- the operator has served more stale
      applications than :data:`MAX_STALE_APPLIES` allows (the guard's
      ``extra`` predicate);
    * ``"stale_stagnation"`` -- the best residual estimate failed to
      improve by the generic ``stall_factor`` within
      :data:`STALE_STALL_WINDOW` iterations.

    Without stale ranks only the non-finite check remains.
    """

    def __init__(self, operator: BoundedStalenessSchwarz) -> None:
        stale = bool(operator.stale_ranks)
        super().__init__(
            stall_window=STALE_STALL_WINDOW if stale else 0,
            stall_reason="stale_stagnation",
            extra=self._over_budget if stale else None,
        )
        self.operator = operator

    def _over_budget(self) -> Optional[str]:
        if self.operator.stale_applies > MAX_STALE_APPLIES:
            return "staleness_budget"
        return None


#: guard reasons that mean "the staleness did it" -- the fallback
#: re-runs bulk-synchronously instead of escalating to the resilience
#: ladder
STALENESS_REASONS = ("staleness_budget", "stale_stagnation")


@dataclass
class AsyncSolveResult:
    """Outcome of a bounded-staleness solve (plus fallback, if any).

    ``iterations`` totals the async attempt and the synchronous
    fallback; ``stale_iterations`` / ``sync_iterations`` split it the
    way the pricing model needs (stale iterations exclude the stale
    ranks from the critical path).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    stale_iterations: int
    sync_iterations: int
    flushes: int
    fell_back: bool
    residual_norms: List[float]
    reduces: int
    stale_ranks: List[int]
    status: SolveStatus


class _SyncFallback(Protection):
    """Staleness recovery: flush, drop the wrapper, go bulk-synchronous."""

    def __init__(self, guard: StalenessGuard) -> None:
        self.guard: Optional[StalenessGuard] = guard
        self.reason: Optional[str] = None

    def watchdog(self):
        return self.guard

    def recover(self, failure, operator, a, b) -> Optional[Repair]:
        if failure.breakdown_reason not in STALENESS_REASONS:
            return None
        self.reason = failure.breakdown_reason
        self.guard = None  # the synchronous resume runs unwatched
        operator.flush()
        return Repair(operator.inner, failure.x)


def solve_async(
    a,
    b: np.ndarray,
    precond,
    stale_ranks: Iterable[int],
    max_staleness: int = 2,
    rtol: float = 1e-8,
) -> AsyncSolveResult:
    """Bounded-staleness GMRES solve with guarded synchronous fallback.

    Runs GMRES with ``precond`` wrapped in
    :class:`BoundedStalenessSchwarz`; if the :class:`StalenessGuard`
    trips, the solve resumes bulk-synchronously from the last finite
    iterate with the residual target *re-anchored* (the restart loop's
    anchor rule), so the combined solve still meets the original
    ``rtol`` against the original right-hand side.  GMRES runs with the
    :class:`~repro.config.KrylovConfig` restart length and iteration cap.
    """
    op = BoundedStalenessSchwarz(
        precond, stale_ranks, max_staleness=max_staleness
    )
    fallback = _SyncFallback(StalenessGuard(op))
    kry = KrylovConfig(rtol=rtol)
    with get_tracer().span("elastic/async_solve") as sp:
        sp.annotate(
            stale_ranks=list(op.stale_ranks), max_staleness=max_staleness
        )
        out = solve_with_restarts(kry, a, b, op, fallback)
        if fallback.reason is not None:
            sp.annotate(fallback_reason=fallback.reason)
        sp.count("stale_iterations", float(op.stale_applies))
        sp.count("flushes", float(op.flushes))
    return AsyncSolveResult(
        x=out.x,
        converged=out.converged,
        iterations=out.iterations,
        stale_iterations=op.stale_applies,
        sync_iterations=out.iterations - op.stale_applies,
        flushes=op.flushes,
        fell_back=fallback.reason is not None,
        residual_norms=out.residual_norms,
        reduces=out.reduces,
        stale_ranks=list(op.stale_ranks),
        status=out.status,
    )


def async_solve_seconds(
    precond,
    layout,
    result: AsyncSolveResult,
    rank_factors=None,
    reduce_doubles: Optional[int] = None,
) -> float:
    """Modeled seconds of a bounded-staleness solve.

    Stale iterations do not wait for the stale ranks, so their
    slowest-rank max excludes them; synchronous iterations (including
    the flushes and any fallback) pay the straggler-inflated full max.
    ``reduce_doubles`` defaults to one double per reduction (norm-sized
    payloads) -- callers with exact counts from a tracer pass them in.
    """
    stale_cost = block_iteration_seconds(
        precond,
        layout,
        1,
        rank_factors=rank_factors,
        exclude_ranks=result.stale_ranks,
    )
    sync_cost = block_iteration_seconds(
        precond, layout, 1, rank_factors=rank_factors
    )
    secs = (
        result.stale_iterations * stale_cost
        + result.sync_iterations * sync_cost
    )
    doubles = result.reduces if reduce_doubles is None else reduce_doubles
    return secs + reduce_seconds(layout, result.reduces, doubles)
