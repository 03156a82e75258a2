"""Per-subdomain recovery ladder.

When a local factorization breaks down (or its fixed-point iteration
diverges), the policy escalates that subdomain one rung at a time,
cheapest remedy first:

1. **boost damping** -- a diverging FastILU factorization retries with
   the Jacobi damping factor halved (the Table I knob; Section VI notes
   the undamped sweeps diverge on stiff elasticity blocks);
2. **diagonal shift** -- a zero/near-zero/negative pivot retries with a
   growing relative shift ``A_i + sigma * max|diag| * I`` (the classic
   shifted-IC/LU remedy);
3. **solver fallback** -- FastILU falls back to ILU(k), ILU(k) to the
   exact pivot-free multifrontal, and that to SuperLU's
   partial-pivoting LU, which factors even the indefinite matrices the
   injected sign-flip faults produce.

Changing a subdomain's solver mid-run is sound because the outer
iteration is *right*-preconditioned GMRES storing the preconditioned
directions ``z_j`` -- effectively FGMRES, which tolerates a different
preconditioner at every application.

The ladder only ever *weakens* the preconditioner (more damping, a
shifted or more approximate factorization) or makes it exact; either
way the Schwarz operator stays well-defined and the Krylov iteration
keeps its convergence guarantees, just with a different count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.dd.local_solvers import LocalSolverSpec
from repro.resilience.detect import DivergenceError, PivotBreakdownError

__all__ = [
    "ACTION_KINDS",
    "SERVICE_ACTION_KINDS",
    "RecoveryAction",
    "LadderState",
    "RecoveryPolicy",
]

#: every action kind the resilience subsystem can record;
#: ``rank_shrink`` / ``rank_respawn`` / ``interpolated_restart`` are the
#: rank-loss rung (process death is beyond any local remedy -- the
#: ladder's last resort, handled by :mod:`repro.ft`)
ACTION_KINDS = (
    "boost_damping",
    "diagonal_shift",
    "fallback_iluk",
    "fallback_exact",
    "fallback_superlu",
    "sanitize_halo",
    "drop_local_solve",
    "promote_precision",
    "krylov_restart",
    "rank_shrink",
    "rank_respawn",
    "interpolated_restart",
)

#: the *service*-level rung above the solver ladder: what
#: :mod:`repro.serve` does when whole batches fail or the queue outruns
#: the deadlines.  Kept here so the solver and serving layers share one
#: action taxonomy (docs/robustness.md tabulates both ladders together).
SERVICE_ACTION_KINDS = (
    "shed",
    "circuit_open",
    "degrade_rtol",
    "degrade_precision",
    "degrade_one_level",
    "scale_out",
    "scale_in",
    "scale_around",
)

#: damping halvings tried before falling back off FastILU
MAX_DAMPING_BOOSTS = 2
#: floor under which FastILU damping is not pushed further
MIN_DAMPING = 0.15
#: first relative diagonal shift of the pivot rung
SHIFT0 = 1e-8
#: per-retry growth factor of the diagonal shift
SHIFT_GROWTH = 100.0
#: shift cap: beyond it the ladder falls back to the next solver
MAX_SHIFT = 4.0

#: the fallback chain (rung above each solver kind)
_FALLBACK_NEXT = {"fastilu": "iluk", "iluk": "tacho", "tacho": "superlu", "superlu": None}
_FALLBACK_ACTION = {"iluk": "fallback_iluk", "tacho": "fallback_exact", "superlu": "fallback_superlu"}


@dataclass(frozen=True)
class RecoveryAction:
    """One recovery step taken by the runtime.

    Attributes
    ----------
    kind:
        One of :data:`ACTION_KINDS`.
    rank:
        Affected subdomain, or -1 for run-global actions
        (``promote_precision`` / ``krylov_restart``).
    detail:
        Human-readable description (also annotated onto the trace).
    """

    kind: str
    rank: int
    detail: str


@dataclass
class LadderState:
    """Where one subdomain currently sits on the escalation ladder.

    Attributes
    ----------
    rank:
        The subdomain this state tracks.
    spec:
        The solver spec currently in effect (mutated by escalation).
    shift:
        Relative diagonal shift currently applied at factorization
        (``A_i + shift * max|diag(A_i)| * I``); 0.0 means none.
    boosts:
        Damping boosts applied so far on the current rung.
    attempts:
        Factorization attempts so far (first build counts as 1; every
        attempt past the first is re-billed as a refactorization).
    escalated:
        True once any recovery action touched this subdomain.
    exhausted:
        True when the ladder ran out of rungs (the breakdown is then
        re-raised to the caller).
    """

    rank: int
    spec: LocalSolverSpec
    shift: float = 0.0
    boosts: int = 0
    attempts: int = 0
    escalated: bool = False
    exhausted: bool = False
    actions: List[RecoveryAction] = field(default_factory=list)

    def describe(self) -> str:
        """Final ladder position, e.g. ``"iluk(1) (nd, cpu solve), shift=1e-06"``."""
        out = self.spec.describe()
        if self.shift:
            out += f", shift={self.shift:g}"
        return out


class RecoveryPolicy:
    """Decides the next recovery action for a broken subdomain.

    The rungs are bounded by the module constants
    :data:`MAX_DAMPING_BOOSTS` / :data:`MIN_DAMPING` (damping halvings
    tried before falling back off FastILU, and the floor under which
    damping is not pushed further) and :data:`SHIFT0` /
    :data:`SHIFT_GROWTH` / :data:`MAX_SHIFT` (first relative diagonal
    shift, its per-retry growth factor, and the cap beyond which the
    policy falls back to the next solver instead of shifting harder).
    """

    def initial_state(self, rank: int, spec: LocalSolverSpec) -> LadderState:
        """Fresh ladder state for one subdomain."""
        return LadderState(rank=rank, spec=spec)

    def rank_loss_rung(
        self, dead_ranks, strategy: str = "shrink", detail: str = ""
    ) -> RecoveryAction:
        """The ladder's terminal rung: the process itself is gone.

        Every lower rung assumes the rank is still alive to retry on;
        a rank loss skips straight past them.  ``strategy`` selects the
        :mod:`repro.ft` repair (``"shrink"`` merges the dead subdomain
        into a neighbor, ``"respawn"`` rebuilds it from checkpoint) and
        the returned action records the decision for the health report;
        ``detail`` overrides its default wording with run-specific
        context.
        """
        if strategy not in ("shrink", "respawn"):
            raise ValueError(
                f"unknown rank-loss strategy {strategy!r}; valid: "
                "'shrink', 'respawn'"
            )
        dead = [int(r) for r in dead_ranks]
        kind = "rank_shrink" if strategy == "shrink" else "rank_respawn"
        return RecoveryAction(
            kind,
            dead[0] if dead else -1,
            detail
            or f"rank(s) {dead} lost (beyond local remedies); repairing the "
            f"communicator and preconditioner by {strategy}",
        )

    def escalate(
        self, state: LadderState, error: BaseException
    ) -> Optional[RecoveryAction]:
        """Advance ``state`` one rung for ``error``; None when exhausted.

        Mutates ``state`` (spec/shift/boosts) and returns the action to
        record; the caller rebuilds the subdomain with the new state.
        """
        action = self._next_action(state, error)
        if action is None:
            state.exhausted = True
            return None
        state.escalated = True
        state.actions.append(action)
        return action

    # ------------------------------------------------------------------
    def _next_action(
        self, state: LadderState, error: BaseException
    ) -> Optional[RecoveryAction]:
        spec = state.spec
        if isinstance(error, DivergenceError) and spec.kind == "fastilu":
            damping = spec.factor_damping * 0.5
            if state.boosts < MAX_DAMPING_BOOSTS and damping >= MIN_DAMPING:
                state.boosts += 1
                state.spec = replace(
                    spec,
                    factor_damping=damping,
                    solve_damping=min(spec.solve_damping, max(damping, 0.5)),
                )
                return RecoveryAction(
                    "boost_damping",
                    state.rank,
                    f"subdomain {state.rank}: FastILU sweeps diverged; "
                    f"damping {spec.factor_damping:g} -> {damping:g}",
                )
        elif isinstance(error, (PivotBreakdownError, ZeroDivisionError)) or (
            error.__class__.__name__ == "LinAlgError"
        ):
            shift = SHIFT0 if state.shift == 0.0 else state.shift * SHIFT_GROWTH
            if shift <= MAX_SHIFT:
                state.shift = shift
                return RecoveryAction(
                    "diagonal_shift",
                    state.rank,
                    f"subdomain {state.rank}: pivot breakdown in "
                    f"{spec.kind}; retrying with relative diagonal "
                    f"shift {shift:g}",
                )
        # out of same-rung remedies: fall back to the next solver
        nxt = _FALLBACK_NEXT.get(spec.kind)
        if nxt is None:
            return None
        state.spec = replace(spec, kind=nxt)
        state.boosts = 0
        return RecoveryAction(
            _FALLBACK_ACTION[nxt],
            state.rank,
            f"subdomain {state.rank}: {spec.kind} unrecoverable "
            f"({type(error).__name__}); falling back to {nxt}",
        )
