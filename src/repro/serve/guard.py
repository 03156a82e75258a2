"""Service-level robustness: circuit breakers, retries, degradation.

The solver stack already has a *subdomain*-level recovery ladder
(:mod:`repro.resilience.policy`) and a *rank*-level one
(:mod:`repro.ft`).  This module adds the rung above both: what the
**service** does when batches keep failing or the queue outruns the
deadlines.

* :class:`CircuitBreaker` -- per-shard, driven by the existing
  :class:`~repro.krylov.status.SolveStatus` taxonomy: ``closed`` while
  batches converge, ``open`` after :data:`BREAKER_THRESHOLD`
  consecutive non-converged/raising batches (requests then shed fast
  with reason ``"circuit_open"`` instead of burning modeled GPU seconds
  on a shard that is demonstrably broken), ``half_open`` after
  ``breaker_cooldown`` model seconds -- one probe batch is let through;
  success closes the breaker, failure re-opens it with the cooldown
  doubled.
* :class:`RetryPolicy` -- up to :data:`MAX_RETRIES` retries with
  exponential backoff and *deterministic* seeded jitter: the jitter for
  attempt ``k`` of request ``r`` is a blake2b hash of ``(seed, r, k)``
  (:func:`~repro.resilience.inject.seeded_jitter`) mapped to ``[0,
  JITTER)``, so a replayed trace retries at bit-identical instants.  Retries are billed
  as real model seconds (the failed attempt's service time is already
  on the clock) and are refused when the backoff would land past the
  request's deadline.
* :class:`DegradationLadder` -- pressure-driven graceful degradation,
  every rung priced through the cost model and reported in
  :attr:`~repro.serve.request.SolveResponse.degradation`:

  1. ``degrade_rtol`` -- loosen the convergence tolerance, but only
     within each request's declared ``tolerance_budget`` (requests
     that declared none keep their full tolerance, capping the rung
     for the whole batch);
  2. ``degrade_precision`` -- wrap the already-built preconditioner in
     :class:`~repro.dd.precision.HalfPrecisionOperator`: half the
     modeled bytes per apply, half the halo payload, zero extra setup.
     GMRES stays in double, so the answer still meets the (possibly
     loosened) tolerance -- the accuracy-preserving "cheaper
     preconditioner" move of the robust-coarse-space literature
     (Al Daas--Jolivet--Nataf--Tournier, arXiv 2401.03915);
  3. ``degrade_one_level`` -- drop the coarse level:
     :class:`OneLevelOperator` applies only the one-level Schwarz half
     of the existing two-level preconditioner (no coarse restrict /
     solve / prolong in the apply profile, again zero extra setup).
     Iteration counts rise -- the paper's own ablation -- but each
     iteration is cheaper and the answer still meets tolerance.

The ladder kinds are registered in
:data:`repro.resilience.policy.SERVICE_ACTION_KINDS`, keeping one
shared action taxonomy across the solver and service layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dd.precision import HalfPrecisionOperator
from repro.dd.wrapper import OperatorWrapper
from repro.machine.kernels import KernelProfile
from repro.resilience.inject import seeded_jitter
from repro.resilience.policy import SERVICE_ACTION_KINDS

__all__ = [
    "GuardConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "DegradationLadder",
    "DegradationDecision",
    "GuardState",
    "OneLevelOperator",
]


#: consecutive failed batches that open a shard's breaker
BREAKER_THRESHOLD = 3
#: retry attempts per request beyond the first
MAX_RETRIES = 2
#: growth of the retry backoff per attempt
BACKOFF_FACTOR = 2.0
#: seeded jitter amplitude of the retry backoff (fraction of it)
JITTER = 0.25
#: deadline pressures (estimated batch seconds over the tightest
#: deadline headroom) at which each degradation rung engages; the rungs
#: are cumulative
PRESSURE_RTOL = 1.0
PRESSURE_PRECISION = 2.0
PRESSURE_ONE_LEVEL = 4.0
#: factor the tolerance is loosened by on the ``degrade_rtol`` rung
#: (capped by each request's ``tolerance_budget``)
RTOL_RELAX = 100.0


@dataclass(frozen=True)
class GuardConfig:
    """The serving guard: admission, breakers, retries and degradation.

    ``SolverService(guard=GuardConfig(...))`` turns all four on
    together; their thresholds are the module constants above and
    those of :mod:`repro.serve.admission`.

    Attributes
    ----------
    breaker_cooldown:
        Model seconds an open breaker waits before the half-open probe
        (>= 0).
    backoff_base:
        Backoff for retry ``k`` (1-based) is ``backoff_base *
        BACKOFF_FACTOR**(k-1) * (1 + JITTER * u)`` with ``u =
        seeded_jitter(seed, request_id, k)`` (>= 0).
    seed:
        Seed of the deterministic jitter stream.
    """

    breaker_cooldown: float = 0.05
    backoff_base: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )


class CircuitBreaker:
    """One shard's breaker state machine (see module docstring)."""

    def __init__(self, cooldown: float) -> None:
        self.cooldown = float(cooldown)
        self._consecutive_failures = 0
        self._open_until: Optional[float] = None
        self._probing = False
        self._cooldown_now = float(cooldown)
        #: lifetime counters for reporting
        self.opened = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"``."""
        if self._open_until is None:
            return "closed"
        return "half_open" if self._probing else "open"

    def allow(self, now: float) -> bool:
        """May a batch execute on this shard at model time ``now``?

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits exactly one probe batch.
        """
        if self._open_until is None:
            return True
        if self._probing:
            return False  # a probe is already in flight this round
        if now >= self._open_until:
            self._probing = True
            return True
        return False

    def record_success(self, now: float) -> None:
        """A batch converged: close the breaker, reset the cooldown."""
        self._consecutive_failures = 0
        self._open_until = None
        self._probing = False
        self._cooldown_now = self.cooldown

    def record_failure(self, now: float) -> None:
        """A batch failed (raised, or no column converged).

        A failed half-open probe re-opens with the cooldown doubled
        (capped at 16x); a closed breaker opens once
        :data:`BREAKER_THRESHOLD` consecutive failures accumulate.
        """
        if self._probing:
            self._cooldown_now = min(
                self._cooldown_now * 2.0, self.cooldown * 16.0
            )
            self._open_until = now + self._cooldown_now
            self._probing = False
            self.opened += 1
            return
        self._consecutive_failures += 1
        if (
            self._open_until is None
            and self._consecutive_failures >= BREAKER_THRESHOLD
        ):
            self._open_until = now + self._cooldown_now
            self.opened += 1


class RetryPolicy:
    """Deadline-capped exponential backoff with seeded jitter."""

    def __init__(self, config: GuardConfig) -> None:
        self.config = config

    def backoff_seconds(self, request_id: str, attempt: int) -> float:
        """Model seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        c = self.config
        u = seeded_jitter(c.seed, request_id, attempt)
        return (
            c.backoff_base * BACKOFF_FACTOR ** (attempt - 1)
            * (1.0 + JITTER * u)
        )

    def should_retry(
        self,
        request_id: str,
        attempt: int,
        now: float,
        absolute_deadline: Optional[float],
    ) -> Optional[float]:
        """The retry's earliest start time, or None when refused.

        Refused when the retry budget is spent or when the backoff
        alone would land past the request's absolute deadline (the
        retry could then only produce a late answer -- exactly what
        the shedding layer exists to prevent).
        """
        if attempt > MAX_RETRIES:
            return None
        not_before = now + self.backoff_seconds(request_id, attempt)
        if absolute_deadline is not None and not_before >= absolute_deadline:
            return None
        return not_before


class OneLevelOperator(OperatorWrapper):
    """The one-level half of an existing two-level preconditioner.

    Shares the inner :class:`~repro.dd.two_level.GDSWPreconditioner`'s
    already-built local factorizations -- constructing this wrapper
    costs zero modeled setup -- and simply skips the coarse restrict /
    solve / prolong in both :meth:`apply` and the priced apply profile.
    The degraded operator is still an SPD additive-Schwarz
    preconditioner, so Krylov convergence (to the same tolerance, in
    more iterations) is retained.
    """

    #: the coarse space is dropped
    n_coarse = 0

    def __init__(self, inner) -> None:
        # composition order is fixed as half(one_level(two_level)) by
        # the ladder
        super().__init__(inner)
        self.one_level = inner.one_level

    def apply(self, v):
        """Apply only the first-level term ``sum_i R_i^T A_i^-1 R_i v``
        (``v`` a vector or an ``(n, k)`` block)."""
        return self.one_level.apply(v)

    def rank_apply_profile(self, rank: int) -> KernelProfile:
        """One apply on ``rank``: the local solve term only."""
        return self.one_level.rank_solve_profile(rank)

    def halo_doubles(self, rank: int) -> int:
        """Halo payload of the one-level apply."""
        return self.one_level.halo_doubles[rank]


@dataclass
class DegradationDecision:
    """What one batch was degraded to, for pricing and reporting.

    ``rungs`` lists the engaged :data:`SERVICE_ACTION_KINDS` in ladder
    order; an empty list means the batch ran at full quality.
    """

    rungs: List[str] = field(default_factory=list)
    effective_rtol: Optional[float] = None
    precision: str = "double"
    levels: int = 2
    pressure: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(self.rungs)

    def to_dict(self) -> dict:
        return {
            "rungs": list(self.rungs),
            "effective_rtol": self.effective_rtol,
            "precision": self.precision,
            "levels": self.levels,
            "pressure": float(self.pressure),
        }


class DegradationLadder:
    """Maps deadline pressure to ladder rungs and wraps the operator."""

    #: ladder order; all members of the shared service taxonomy
    RUNGS = ("degrade_rtol", "degrade_precision", "degrade_one_level")

    def __init__(self) -> None:
        for rung in self.RUNGS:
            if rung not in SERVICE_ACTION_KINDS:
                raise ValueError(
                    f"rung {rung!r} missing from SERVICE_ACTION_KINDS"
                )

    def pressure(
        self,
        estimated_seconds: float,
        headroom_seconds: Optional[float],
    ) -> float:
        """Deadline pressure of one batch about to execute.

        ``estimated_seconds`` over the tightest deadline headroom in
        the batch; 0 when nothing in the batch carries a deadline (no
        SLO to save -- the ladder never degrades unconstrained work).
        """
        if headroom_seconds is None or estimated_seconds <= 0.0:
            return 0.0
        if headroom_seconds <= 0.0:
            return float("inf")
        return estimated_seconds / headroom_seconds

    def decide(
        self,
        pressure: float,
        base_rtol: float,
        tolerance_budgets: List[Optional[float]],
    ) -> DegradationDecision:
        """The rungs engaged at ``pressure`` for one batch.

        ``tolerance_budgets`` carries each batched request's declared
        loosest-acceptable rtol (None = no budget).  The batch shares
        one block solve, so the loosened tolerance is capped by the
        *tightest* budget present; any request without a budget pins
        the batch at full tolerance.
        """
        decision = DegradationDecision(pressure=pressure)
        if pressure < PRESSURE_RTOL:
            return decision
        # rung 1: loosen rtol within every request's declared budget
        if tolerance_budgets and all(b is not None for b in tolerance_budgets):
            cap = min(tolerance_budgets)
            loosened = min(base_rtol * RTOL_RELAX, cap)
            if loosened > base_rtol:
                decision.rungs.append("degrade_rtol")
                decision.effective_rtol = loosened
        if pressure >= PRESSURE_PRECISION:
            decision.rungs.append("degrade_precision")
            decision.precision = "single"
        if pressure >= PRESSURE_ONE_LEVEL:
            decision.rungs.append("degrade_one_level")
            decision.levels = 1
        return decision

    @staticmethod
    def wrap_operator(precond, decision: DegradationDecision):
        """Build the degraded operator for ``decision``.

        Composition order is fixed (half precision outermost, matching
        how the session wraps its own single-precision builds) and both
        wrappers reuse the built preconditioner, so the degraded
        operator costs zero extra modeled setup.
        """
        out = precond
        if decision.levels == 1:
            out = OneLevelOperator(out)
        if decision.precision == "single":
            out = HalfPrecisionOperator(out)
        return out


class GuardState:
    """Per-service container of the guard's mutable state."""

    def __init__(self, config: GuardConfig) -> None:
        self.config = config
        self.retry = RetryPolicy(config)
        self.ladder = DegradationLadder()
        self._breakers: Dict[Tuple, CircuitBreaker] = {}

    def breaker(self, shard: Tuple) -> CircuitBreaker:
        br = self._breakers.get(shard)
        if br is None:
            br = CircuitBreaker(self.config.breaker_cooldown)
            self._breakers[shard] = br
        return br
