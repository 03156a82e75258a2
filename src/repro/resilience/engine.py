"""The resilience engine: injection, detection, and recovery in flight.

``SolverSession(policy=ResilienceConfig(...))`` turns one
:class:`ResilienceEngine` on.  The engine is the session's
:class:`~repro.krylov.driver.Protection` (it wraps the operator, hands
out the residual watchdog, and answers ``recover`` / ``report`` for the
restart loop) and is installed as the ambient engine
(:mod:`repro.resilience.context`) so the numeric layers can reach it
without signature changes:

* :class:`~repro.dd.schwarz.OneLevelSchwarz` routes every local
  factorization through :meth:`ResilienceEngine.build_local` (fault
  injection, breakdown capture, ladder escalation, refactorization
  billing) and every local apply through
  :meth:`~ResilienceEngine.filter_restrict` /
  :meth:`~ResilienceEngine.check_local_solution`;
* :class:`~repro.ilu.fastilu.FastIlu` reports per-sweep updates for
  divergence detection and injection;
* the factorization kernels read :attr:`~ResilienceEngine.pivot_rtol`
  to upgrade their exact-zero pivot checks to relative near-zero tests;
* the Krylov solvers take a :class:`~repro.resilience.detect.KrylovGuard`
  from :meth:`~ResilienceEngine.watchdog`.

**Lifetime.**  An engine lives as long as the operator it guards: the
session makes one per cold build and keeps it across ``resolve()``, so
the per-rank ladder state, the apply counter the fault plan is keyed on
and the re-billed refactorization profiles survive the skip and refactor
rungs.  The health log (detections, actions, restart budget) is per
solve: :meth:`~ResilienceEngine.report` closes it and opens a fresh one.

:class:`GuardedOperator` wraps the session preconditioner: it applies
the apply-time faults of the :class:`~repro.resilience.inject.FaultPlan`,
converts float32 overflow into a recoverable breakdown, bills the
health checks as a ``resilience.health_check`` kernel, and re-bills
every recovery refactorization into the cost model's setup profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.dd.wrapper import OperatorWrapper, unwrap
from repro.krylov.driver import Protection, Repair
from repro.krylov.status import SolveStatus
from repro.machine.kernels import KernelProfile
from repro.obs import get_tracer
from repro.resilience.context import use_engine
from repro.resilience.detect import (
    BREAKDOWN_EXCEPTIONS,
    DivergenceError,
    FloatOverflowError,
)
from repro.resilience.detect import KrylovGuard
from repro.resilience.inject import FaultEvent, FaultPlan
from repro.resilience.policy import LadderState, RecoveryAction, RecoveryPolicy

__all__ = [
    "ResilienceConfig",
    "ResilienceEngine",
    "GuardedOperator",
    "HealthReport",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the breakdown-tolerant runtime.

    Attributes
    ----------
    detect:
        Run the in-flight health checks (NaN/Inf, stagnation, relative
        pivot tests, FastILU divergence, float32 overflow).
    recover:
        Act on detections (escalation ladder, halo sanitization,
        precision promotion, Krylov restarts).  ``detect=False,
        recover=False`` with a fault plan reproduces the seed-era
        behavior under faults -- the control arm of the chaos matrix.
    fault_plan:
        Faults to inject (:class:`~repro.resilience.inject.FaultPlan`);
        None solves faithfully.
    max_restarts:
        Krylov restarts-from-last-finite-iterate before giving up.
    stall_window, stall_factor:
        Stagnation detector: the best residual estimate must improve by
        ``stall_factor`` within any ``stall_window`` iterations.
    pivot_rtol:
        Relative near-zero pivot threshold of the factorization guards.
    growth_tol:
        FastILU divergence threshold (last/first sweep-update ratio).
    max_damping_boosts, min_damping, shift0, shift_growth, max_shift:
        Escalation-ladder knobs (see
        :class:`~repro.resilience.policy.RecoveryPolicy`).
    """

    detect: bool = True
    recover: bool = True
    fault_plan: Optional[FaultPlan] = None
    max_restarts: int = 3
    stall_window: int = 120
    stall_factor: float = 0.999
    pivot_rtol: float = 1e-14
    growth_tol: float = 10.0
    max_damping_boosts: int = 2
    min_damping: float = 0.15
    shift0: float = 1e-8
    shift_growth: float = 100.0
    max_shift: float = 4.0

    def protection(self, session=None) -> "ResilienceEngine":
        """A fresh engine (one per cold build); ``session`` supplies the
        double-precision rebuild of the precision-promotion recovery."""
        return ResilienceEngine(
            self, rebuild=getattr(session, "build_preconditioner", None)
        )


@dataclass
class HealthReport:
    """What broke, what was detected, and what the runtime did about it.

    Attached to :class:`~repro.api.SessionResult` as ``result.health``.
    """

    status: str
    faults: List[FaultEvent] = field(default_factory=list)
    detections: List[str] = field(default_factory=list)
    actions: List[RecoveryAction] = field(default_factory=list)
    ladder: Dict[int, str] = field(default_factory=dict)
    restarts: int = 0
    refactorizations: int = 0
    sanitized_values: int = 0
    precision_promoted: bool = False

    @property
    def recovered(self) -> bool:
        """Did any recovery action run?"""
        return bool(self.actions) or self.restarts > 0

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"health: {self.status}"]
        if self.faults:
            lines.append(f"  faults injected ({len(self.faults)}):")
            lines += [f"    - [{f.kind}] {f.detail}" for f in self.faults]
        if self.detections:
            lines.append(f"  detections ({len(self.detections)}):")
            lines += [f"    - {d}" for d in self.detections]
        if self.actions:
            lines.append(f"  recovery actions ({len(self.actions)}):")
            lines += [f"    - [{a.kind}] {a.detail}" for a in self.actions]
        if self.ladder:
            lines.append("  final ladder state:")
            lines += [
                f"    - rank {r}: {desc}" for r, desc in sorted(self.ladder.items())
            ]
        lines.append(
            f"  restarts={self.restarts} refactorizations="
            f"{self.refactorizations} sanitized_values={self.sanitized_values}"
            + (" precision_promoted" if self.precision_promoted else "")
        )
        return "\n".join(lines)


def _shifted(a, shift: float):
    """``A + shift * max|diag(A)| * I`` (the ladder's pivot remedy)."""
    diag = a.diagonal()
    sigma = shift * float(np.max(np.abs(diag))) if diag.size else shift
    data = a.data.copy()
    for j in range(a.shape[0]):
        lo, hi = int(a.indptr[j]), int(a.indptr[j + 1])
        sel = np.searchsorted(a.indices[lo:hi], j)
        if sel < hi - lo and a.indices[lo + sel] == j:
            data[lo + sel] += sigma
    return type(a)(a.indptr, a.indices, data, a.shape)


class ResilienceEngine(Protection):
    """Mutable state of the breakdown-tolerant runtime (see *Lifetime*)."""

    def __init__(
        self, config: ResilienceConfig, rebuild: Optional[Callable] = None
    ) -> None:
        self.config = config
        self.plan = config.fault_plan
        self.policy = RecoveryPolicy(
            max_damping_boosts=config.max_damping_boosts,
            min_damping=config.min_damping,
            shift0=config.shift0,
            shift_growth=config.shift_growth,
            max_shift=config.max_shift,
        )
        #: ``rebuild(precision=)`` -> a fresh preconditioner (promotion)
        self._rebuild = rebuild
        # -- operator lifetime ------------------------------------------
        self.states: Dict[int, LadderState] = {}
        self.refactor_profiles: Dict[int, KernelProfile] = {}
        self.apply_index = 0
        self._one_level = None
        self._halo_masks: Dict[int, np.ndarray] = {}
        self._open_solve()

    def _open_solve(self) -> None:
        """Start a fresh per-solve health log."""
        self.actions: List[RecoveryAction] = []
        self.detections: List[str] = []
        self.refactorizations = 0
        self.restarts = 0
        self.overflow: Optional[FloatOverflowError] = None
        self.precision_promoted = False
        self.sanitized_values = 0
        self._noted_ranks: set = set()
        self._active_rank: Optional[int] = None
        self._faults_before = len(self.plan.fired) if self.plan else 0

    # -- configuration views -------------------------------------------
    @property
    def detect(self) -> bool:
        """Are the health checks on?"""
        return self.config.detect

    @property
    def pivot_rtol(self) -> float:
        """Relative pivot threshold for the factorization kernels.

        0.0 (exact-zero check only, the seed behavior) when detection
        is off.
        """
        return self.config.pivot_rtol if self.config.detect else 0.0

    @property
    def growth_tol(self) -> float:
        """FastILU sweep-divergence threshold."""
        return self.config.growth_tol

    # -- the protection protocol (repro.krylov.driver) ------------------
    @property
    def injecting(self) -> bool:
        """Is a fault plan breaking things on purpose?"""
        return self.plan is not None

    def context(self):
        """This engine installed for the numeric layers' hooks."""
        return use_engine(self)

    def wrap(self, operator, rung: str):
        """The operator under injection and overflow capture."""
        return GuardedOperator(operator, self), None

    def watchdog(self) -> Optional[KrylovGuard]:
        """A fresh Krylov health monitor (None when detection is off)."""
        if not self.detect:
            return None
        return KrylovGuard(
            stall_window=self.config.stall_window,
            stall_factor=self.config.stall_factor,
        )

    def report(self, result):
        """``recovered`` when the solve converged only thanks to actions."""
        status = result.status
        if result.converged and (self.actions or self.restarts):
            status = SolveStatus.RECOVERED
        health = self.health_report(str(status))
        self._open_solve()  # the next solve on this operator logs afresh
        return status, {"health": health}

    # -- bookkeeping ----------------------------------------------------
    def _seen(self, once_key) -> bool:
        """Has ``once_key`` been noted this solve?  (None never dedups.)"""
        if once_key is None:
            return False
        seen = once_key in self._noted_ranks
        self._noted_ranks.add(once_key)
        return seen

    def record_detection(self, what: str, once_key=None) -> None:
        """Log one detection (``once_key`` dedups repeating ones)."""
        if not self._seen(once_key):
            self.detections.append(what)
            get_tracer().count("resilience_detected", 1.0)

    def record_action(self, action: RecoveryAction, once_key=None) -> None:
        """Log one recovery action (trace counter ``resilience_actions``)."""
        if not self._seen(once_key):
            self.actions.append(action)
            tr = get_tracer()
            tr.count("resilience_actions", 1.0)
            tr.count(f"resilience_action.{action.kind}", 1.0)

    def health_report(self, status: str) -> HealthReport:
        """Assemble this solve's :class:`HealthReport`."""
        return HealthReport(
            status=status,
            faults=(
                self.plan.fired[self._faults_before:] if self.plan else []
            ),
            detections=list(self.detections),
            actions=list(self.actions),
            ladder={
                rank: state.describe()
                for rank, state in self.states.items()
                if state.escalated
            },
            restarts=self.restarts,
            refactorizations=self.refactorizations,
            sanitized_values=self.sanitized_values,
            precision_promoted=self.precision_promoted,
        )

    # -- build-time hooks (OneLevelSchwarz setup) -----------------------
    def register_one_level(self, one_level) -> None:
        """Remember the one-level operator for in-place rebuilds."""
        self._one_level = one_level

    def build_local(self, rank: int, spec, a):
        """Factor one subdomain under injection + the recovery ladder.

        Returns ``(a, factored)`` -- the (possibly fault-corrupted)
        subdomain matrix the caller must keep, and its factorization.
        """
        if self.plan is not None:
            a = self.plan.corrupt_matrix(rank, a)
        state = self.states.get(rank)
        if state is None:
            state = self.policy.initial_state(rank, spec)
            self.states[rank] = state
        return a, self._build_with_ladder(state, a)

    def rebuild_rank(self, rank: int) -> None:
        """Rebuild one subdomain in place after mid-solve escalation."""
        ol = self._one_level
        if ol is None:
            return
        state = self.states[rank]
        ol.locals[rank] = self._build_with_ladder(state, ol.matrices[rank])

    def _build_with_ladder(self, state: LadderState, a):
        self._active_rank = state.rank
        try:
            while True:
                try:
                    return self._build_once(state, a)
                except BREAKDOWN_EXCEPTIONS as err:
                    self.record_detection(
                        f"rank {state.rank}: {type(err).__name__}: {err}"
                    )
                    if not self.config.recover:
                        raise
                    action = self.policy.escalate(state, err)
                    if action is None:
                        raise
                    self.record_action(action)
        finally:
            self._active_rank = None

    def _build_once(self, state: LadderState, a):
        first = state.attempts == 0
        state.attempts += 1
        a_eff = _shifted(a, state.shift) if state.shift > 0.0 else a
        if first:
            return state.spec.build(a_eff)
        # retry: a real refactorization -- bill its kernels
        with get_tracer().span("resilience/refactor", rank=state.rank) as sp:
            sp.annotate(solver=state.spec.describe(), shift=state.shift)
            factored = state.spec.build(a_eff)
            prof = KernelProfile()
            prof.extend(factored.symbolic_profile)
            prof.extend(factored.setup_profile)
            prof.extend(factored.numeric_profile)
            sp.add_profile(prof)
            self.refactor_profiles.setdefault(
                state.rank, KernelProfile()
            ).extend(prof)
            self.refactorizations += 1
        return factored

    def fastilu_perturb(self, sweep: int, l_vals, u_vals):
        """Injection hook called by FastIlu after each Jacobi sweep."""
        if self.plan is None or self._active_rank is None:
            return l_vals, u_vals
        return self.plan.fastilu_perturb(self._active_rank, sweep, l_vals, u_vals)

    # -- apply-time hooks (OneLevelSchwarz / GDSW apply) ----------------
    def _halo_mask(self, rank: int) -> np.ndarray:
        mask = self._halo_masks.get(rank)
        if mask is None:
            ol = self._one_level
            ns = ol.node_sets[rank]
            owned = ol.dec.node_owner[ns] == rank
            mask = np.repeat(~owned, ol.dec.dofs_per_node)
            self._halo_masks[rank] = mask
        return mask

    def filter_restrict(self, rank: int, v: np.ndarray) -> np.ndarray:
        """Inject/sanitize one subdomain's restricted input vector."""
        if self.plan is not None and self._one_level is not None:
            v = self.plan.restrict_fault(
                rank, self.apply_index, v, self._halo_mask(rank)
            )
        if not self.detect:
            return v
        bad = ~np.isfinite(v)
        nbad = int(np.count_nonzero(bad))
        if nbad:
            self.record_detection(
                f"rank {rank}: {nbad} non-finite imported halo values at "
                f"apply {self.apply_index}",
                once_key=("halo", rank),
            )
            if self.config.recover:
                v = np.where(bad, 0.0, v)
                self.sanitized_values += nbad
                get_tracer().count("resilience_sanitized_values", float(nbad))
                self.record_action(
                    RecoveryAction(
                        "sanitize_halo",
                        rank,
                        f"subdomain {rank}: zeroing non-finite imported "
                        f"halo values before the local solve",
                    ),
                    once_key=("sanitize", rank),
                )
        return v

    def _drop_nonfinite(self, x, what: str, once_key, action=None):
        """Zero ``x`` (logging why, and ``action()``) when it left the reals."""
        if not self.detect or np.all(np.isfinite(x)):
            return x
        self.record_detection(
            f"{what} at apply {self.apply_index}", once_key=once_key
        )
        if not self.config.recover:
            return x
        if action is not None:
            self.record_action(action(), once_key=("drop",) + once_key)
        return np.zeros_like(x)

    def check_local_solution(self, rank: int, x: np.ndarray) -> np.ndarray:
        """Drop a subdomain's contribution when its solve went non-finite."""
        return self._drop_nonfinite(
            x,
            f"rank {rank}: non-finite local solution",
            ("local", rank),
            lambda: RecoveryAction(
                "drop_local_solve",
                rank,
                f"subdomain {rank}: dropping non-finite local correction "
                f"(preconditioner degraded, FGMRES-safe)",
            ),
        )

    def check_coarse(self, xc: np.ndarray) -> np.ndarray:
        """Drop the coarse correction when the coarse solve went bad."""
        return self._drop_nonfinite(
            xc, "coarse solve: non-finite correction", ("coarse",)
        )

    # -- mid-solve escalation (the restart loop's recover hook) ----------
    def recover(self, failure, operator, a, b) -> Optional[Repair]:
        """The session-level response to a Krylov breakdown.

        Promotes the preconditioner to double precision after a float32
        overflow, escalates the approximate locals after a stagnation,
        and resumes from the last finite iterate; None gives up
        (recovery off or the restart budget spent).
        """
        if not self.config.recover or self.restarts >= self.config.max_restarts:
            return None
        self.restarts += 1
        reason = failure.breakdown_reason
        if self.overflow is not None and not self.precision_promoted:
            self.precision_promoted = True
            self.record_action(
                RecoveryAction(
                    "promote_precision",
                    -1,
                    "float32 overflow in the half-precision preconditioner; "
                    "rebuilding in double precision",
                )
            )
            with get_tracer().span("resilience/promote") as rp:
                rp.annotate(reason="float32 overflow")
                # the discarded single-precision setup still happened:
                # re-bill it before rebuilding
                self.bill_full_setup(operator.inner)
                operator = GuardedOperator(
                    self._rebuild(precision="double"), self
                )
        else:
            if reason == "stagnation":
                # a finite-but-garbage preconditioner plateaus GMRES
                # without tripping any NaN guard: escalate the
                # approximate locals
                for rank, state in sorted(self.states.items()):
                    if state.spec.kind == "fastilu" and not state.exhausted:
                        action = self.policy.escalate(state, DivergenceError(
                            f"stagnation attributed to fastilu on rank {rank}"
                        ))
                        if action is not None:
                            self.record_action(action)
                            self.rebuild_rank(rank)
            self.record_action(
                RecoveryAction(
                    "krylov_restart",
                    -1,
                    f"restarting the Krylov iteration from the last finite "
                    f"iterate after breakdown ({reason})",
                )
            )
        x0 = failure.x
        if not np.all(np.isfinite(x0)):  # the guard missed: restart cold
            x0 = None
        return Repair(operator, x0)

    def bill_full_setup(self, operator) -> None:
        """Re-bill a discarded operator's setup (precision promotion).

        The promoted run's own profiles describe only the final
        (double) preconditioner; the wasted single-precision setup is
        added to the per-rank refactorization profiles so the cost
        model charges both.
        """
        n_ranks = operator.dec.n_subdomains
        for rank in range(n_ranks):
            self.refactor_profiles.setdefault(rank, KernelProfile()).extend(
                operator.rank_setup_profile(rank)
            )
        self.refactorizations += n_ranks


class GuardedOperator(OperatorWrapper):
    """The session preconditioner under the resilience engine.

    Wraps a :class:`~repro.dd.two_level.GDSWPreconditioner` (or its
    :class:`~repro.dd.precision.HalfPrecisionOperator` wrapper),
    delegating the cost-model interface while:

    * applying the fault plan's apply-time faults (input overflow
      scaling, output NaN);
    * converting :class:`FloatOverflowError` into a non-finite output
      the Krylov guard recognizes as a recoverable breakdown;
    * billing the detection sweeps as a ``resilience.health_check``
      kernel in the apply profile;
    * adding every recovery refactorization to the setup profile.
    """

    protective = True

    def __init__(self, inner, engine: ResilienceEngine) -> None:
        super().__init__(inner)
        self.engine = engine

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1} v`` under injection + overflow capture."""
        eng = self.engine
        idx = eng.apply_index
        if eng.plan is not None:
            scale = eng.plan.input_scale(idx)
            if scale != 1.0:
                v = np.asarray(v, dtype=np.float64) * scale
        try:
            y = self.inner.apply(v)
        except FloatOverflowError as err:
            eng.overflow = err
            eng.record_detection(f"FloatOverflowError: {err}")
            y = np.full(np.asarray(v).shape, np.nan)
        if eng.plan is not None:
            y = eng.plan.output_fault(idx, y)
        eng.apply_index = idx + 1
        return y

    def rank_setup_profile(self, rank: int, refactorization: bool = False) -> KernelProfile:
        """Inner setup plus every recovery refactorization on ``rank``."""
        prof = KernelProfile()
        prof.extend(self.inner.rank_setup_profile(rank, refactorization))
        extra = self.engine.refactor_profiles.get(rank)
        if extra is not None:
            prof.extend(extra)
        return prof

    def rank_apply_profile(self, rank: int) -> KernelProfile:
        """Inner apply plus the (cheap) health-check sweeps."""
        prof = self.inner.rank_apply_profile(rank)
        if self.engine.detect:
            n_i = float(unwrap(self.inner).one_level.dof_sets[rank].size)
            # one isfinite sweep over the restricted input and one over
            # the local solution: streaming reads, no flops to speak of
            prof.add(
                "resilience.health_check",
                flops=n_i,
                bytes=16.0 * n_i,
                parallelism=n_i,
            )
        return prof
