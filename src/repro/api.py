"""The unified solver facade: one validated entry point for the stack.

The scattered seed-era flow --

    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    m = GDSWPreconditioner(dec, rigid_body_modes(problem.coordinates),
                           SchwarzConfig(local=LocalSolverSpec(...)))
    tracer = Tracer()
    with use_tracer(tracer):
        res = gmres(problem.a, problem.b, preconditioner=m, rtol=...)
    tracer.reduces, tracer.reduce_doubles

-- collapses to::

    from repro import SolverSession, SchwarzConfig, KrylovConfig

    result = SolverSession(
        problem,
        partition=(2, 2, 2),
        config=SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
        krylov=KrylovConfig(rtol=1e-7, restart=30),
    ).solve()
    result.x, result.iterations, result.reduces
    print(result.phase_table())
    open("trace.json", "w").write(result.chrome_trace_json())
    timings = result.timings(JobLayout.gpu_run(1, 4))   # paper tables

Every option is validated at *construction* with an error that names
the field or lists the valid values (:mod:`repro.config`), and every
solve runs under a :class:`~repro.obs.tracer.Tracer`, so the full
observability surface (span tree, reduction counters, Chrome trace,
phase tables) comes for free.  The layered entry points take the same
config objects.

**One pipeline.**  ``solve()``, ``resolve()`` and ``solve_sequence()``
-- with or without a protection ``policy=`` -- all run
*prepare -> iterate -> report*:

* **prepare** -- :meth:`SolverSession.prepare`, the one reuse ladder
  (skip / refactor / cold, keyed on the matrix fingerprints).  The
  serving pool asks the same method;
* **iterate** -- :func:`repro.krylov.driver.solve_with_restarts` under
  the policy's :class:`~repro.krylov.driver.Protection` (the null
  protection when ``policy=None``);
* **report** -- one result builder: true residual, verification, reuse
  state, the policy's health report, :class:`SessionResult`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import (
    COARSE_SPACES,
    COARSE_VARIANTS,
    PRECISIONS,
    KrylovConfig,
    SchwarzConfig,
)
from repro.dd.decomposition import Decomposition
from repro.dd.precision import HalfPrecisionOperator, single_precision_matrix
from repro.dd.two_level import GDSWPreconditioner
from repro.dd.wrapper import unwrap
from repro.fem import constant_nullspace, rigid_body_modes, translations_only
from repro.krylov.driver import DriverResult, Protection, solve_with_restarts
from repro.obs import Tracer, get_tracer, use_tracer
from repro.result import SessionResult
from repro.reuse import (
    get_artifact_cache,
    pattern_fingerprint,
    values_fingerprint,
)
from repro.sparse.csr import CsrMatrix

__all__ = [
    "AlgebraicProblem",
    "SchwarzConfig",
    "KrylovConfig",
    "SolverSession",
    "SessionResult",
    "COARSE_VARIANTS",
    "COARSE_SPACES",
    "PRECISIONS",
]


@dataclass
class AlgebraicProblem:
    """A bare assembled operator in the problem shape a session expects
    (the ``.mtx`` ingestion and serving adapter).

    No grid and usually no geometry: sessions built on it partition the
    node graph algebraically and (for the GDSW family) fall back to the
    translation/constant null spaces.
    """

    a: CsrMatrix
    b: np.ndarray
    dofs_per_node: int = 1
    coordinates: Optional[np.ndarray] = None
    source: str = ""


@dataclass
class _ReuseState:
    """What a solve leaves behind for the reuse ladder."""

    #: the preconditioner proper (precision-wrapped, protection stripped)
    operator: object
    #: the policy's protection; lives as long as ``operator``
    protection: Protection
    pattern_fp: str
    values_fp: str


class SolverSession:
    """One problem + partition + configuration, solved under a tracer.

    Parameters
    ----------
    problem:
        An assembled problem (:func:`repro.fem.elasticity_3d`,
        :func:`repro.fem.laplace_3d`, ...): needs ``a``, ``b``,
        ``coordinates`` and ``dofs_per_node``.
    partition:
        Subdomain box ``(px, py, pz)`` -- one subdomain per model rank.
    config:
        :class:`SchwarzConfig` (defaults to the paper configuration).
    krylov:
        :class:`KrylovConfig` (defaults to single-reduce GMRES(30)).
    nullspace:
        Neumann null space override; by default rigid-body modes for
        3-dof problems, constants for scalar problems.
    verify:
        ``False`` (default) solves without verification.  ``True`` runs
        the :mod:`repro.verify` invariant suite after the solve with
        default tolerances; a :class:`~repro.verify.VerifyConfig`
        selects tolerances and the optional distributed diff /
        cost-model audit.  The report lands on
        ``SessionResult.verification``; in strict mode (the config
        default) a failed check raises
        :class:`~repro.verify.VerificationError`.
    policy:
        The session's protection policy -- one slot for the two
        mutually-exclusive protection runtimes:

        * a :class:`~repro.resilience.ResilienceConfig` enables the
          breakdown-tolerant runtime (detection/recovery ladder, an
          optional :class:`~repro.resilience.FaultPlan` to inject).
          The :class:`~repro.resilience.HealthReport` lands on
          ``SessionResult.health`` and ``SessionResult.status`` reads
          ``"recovered"`` when the solve converged only thanks to
          recovery actions.
        * a :class:`~repro.ft.FaultToleranceConfig` enables the
          :mod:`repro.ft` rank-loss driver (failure plan, shrink /
          respawn recovery, checkpoint cadence).  The
          :class:`~repro.ft.FtReport` lands on ``SessionResult.ft``
          and the recovery actions on ``SessionResult.health``.

        ``None`` (default) solves unprotected.  Either config turns
        into a :class:`~repro.krylov.driver.Protection` plugged into the
        one solve pipeline, so it covers :meth:`resolve` and
        :meth:`solve_sequence` exactly as it covers :meth:`solve`, and
        lives as long as the operator it guards.

    Each solve records into a fresh :class:`~repro.obs.tracer.Tracer`
    (``SessionResult.trace``).  :meth:`resolve` and
    :meth:`solve_sequence` reuse setup bit-identically to cold solves:
    same-values re-solves skip it, same-pattern new values refactorize
    numerically.
    """

    def __init__(
        self,
        problem,
        partition: Tuple[int, int, int] = (2, 2, 2),
        config: Optional[SchwarzConfig] = None,
        krylov: Optional[KrylovConfig] = None,
        nullspace: Optional[np.ndarray] = None,
        verify: object = False,
        policy: object = None,
    ) -> None:
        for attr in ("a", "b"):
            if not hasattr(problem, attr):
                raise TypeError(
                    f"problem must expose '{attr}' (got {type(problem).__name__})"
                )
        partition = tuple(int(p) for p in partition)
        if len(partition) != 3 or any(p < 1 for p in partition):
            raise ValueError(
                f"partition must be a (px, py, pz) triple of positive "
                f"integers, got {partition!r}"
            )
        self.problem = problem
        self.partition = partition
        self.config = config or SchwarzConfig()
        self.krylov = krylov or KrylovConfig()
        self._nullspace = nullspace
        if verify is True:
            from repro.verify import VerifyConfig

            verify = VerifyConfig()
        self.verify: object = verify or None
        if policy and not callable(getattr(policy, "protection", None)):
            raise TypeError(
                "policy must be a ResilienceConfig or a "
                f"FaultToleranceConfig, got {type(policy).__name__}"
            )
        self.policy: object = policy or None
        #: what the previous solve left behind, keyed by matrix
        #: fingerprints; drives the :meth:`prepare` reuse ladder
        self._state: Optional[_ReuseState] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_matrix_market(
        cls,
        path,
        b: Optional[np.ndarray] = None,
        *,
        dofs_per_node: int = 1,
        coordinates: Optional[np.ndarray] = None,
        **kwargs,
    ) -> "SolverSession":
        """A session over an arbitrary assembled ``.mtx`` matrix.

        Reads the MatrixMarket coordinate file at ``path``
        (:func:`repro.io.read_operator`), wraps it as an algebraic
        problem (no grid -- the decomposition falls back to
        :meth:`~repro.dd.decomposition.Decomposition.algebraic` graph
        partitioning), and returns a normal :class:`SolverSession`.
        ``SchwarzConfig(coarse_space="spectral")`` needs nothing else;
        the GDSW family additionally wants a meaningful null space
        (constants for scalar problems and per-component translations
        for block problems are the automatic fallbacks; pass
        ``coordinates`` or ``nullspace=`` for true rigid-body modes).

        Parameters
        ----------
        path:
            A MatrixMarket coordinate file (``real``/``integer``/
            ``pattern`` field, ``general`` or ``symmetric``); must be
            square.
        b:
            Right-hand side; defaults to the vector of ones.
        dofs_per_node:
            Block size of the matrix (3 for 3D elasticity); the matrix
            order must be divisible by it.
        coordinates:
            Optional ``(n_nodes, 3)`` node coordinates enabling the
            rigid-body null space for 3-dof problems.
        kwargs:
            Forwarded to :class:`SolverSession` (``partition``,
            ``config``, ``krylov``, ``nullspace``, ``verify``, ...).
        """
        from repro.io import read_operator

        a = read_operator(path, dofs_per_node)
        if b is None:
            b = np.ones(a.n_rows, dtype=np.float64)
        else:
            b = np.asarray(b, dtype=np.float64)
            if b.shape != (a.n_rows,):
                raise ValueError(
                    f"{path}: rhs shape {b.shape} does not match the "
                    f"matrix order {a.n_rows}"
                )
        problem = AlgebraicProblem(
            a=a, b=b, dofs_per_node=int(dofs_per_node),
            coordinates=coordinates, source=str(path),
        )
        return cls(problem, **kwargs)

    # ------------------------------------------------------------------
    def nullspace(self) -> np.ndarray:
        """The Neumann null space used for the coarse basis.

        Rigid-body modes for 3-dof problems with coordinates; per-
        component translations for block problems without geometry (the
        algebraic ``.mtx`` ingestion path); constants for scalar
        problems.
        """
        if self._nullspace is not None:
            return self._nullspace
        d = int(getattr(self.problem, "dofs_per_node", 1))
        if d == 3 and getattr(self.problem, "coordinates", None) is not None:
            return rigid_body_modes(self.problem.coordinates)
        if d > 1:
            return translations_only(self.problem.a.n_rows // d, d)
        return constant_nullspace(self.problem.a.n_rows)

    def build_preconditioner(self, precision: Optional[str] = None):
        """Build the (possibly precision-wrapped) preconditioner only.

        ``precision`` overrides the config's working precision -- the
        resilience engine uses it to rebuild in double after a float32
        overflow.
        """
        problem = self.problem
        precision = precision or self.config.precision
        if precision == "single":
            problem = copy.copy(problem)
            problem.a = single_precision_matrix(problem.a)
        # the partition plan is pattern-only: same pattern + same box
        # split -> same node parts, so it lives in the artifact cache
        # and is re-bound to the new values on a hit
        cache = get_artifact_cache()
        dkey = (
            "decomposition",
            pattern_fingerprint(problem.a),
            self.partition,
        )
        dec_plan = cache.get(dkey)
        if dec_plan is None:
            if hasattr(problem, "grid"):
                dec = Decomposition.from_box_partition(
                    problem, *self.partition
                )
            else:
                # bare algebraic operators (the serving path) have no
                # grid; partition the node graph into the same number
                # of subdomains the box split would have produced
                px, py, pz = self.partition
                dec = Decomposition.algebraic(
                    problem.a,
                    px * py * pz,
                    dofs_per_node=getattr(problem, "dofs_per_node", 1),
                )
            cache.put(dkey, dec)
        else:
            dec = dec_plan.with_values(problem.a)
        precond = GDSWPreconditioner(dec, self.nullspace(), self.config)
        if precision == "single":
            return HalfPrecisionOperator(precond)
        return precond

    # ------------------------------------------------------------------
    # prepare -> iterate -> report
    # ------------------------------------------------------------------
    @property
    def operator(self):
        """The preconditioner the reuse ladder currently holds (or None)."""
        return None if self._state is None else self._state.operator

    def adopt(self, operator) -> None:
        """Swap in a repartitioned operator over the *same* matrix.

        An elastic merge/split changes the partition, not the values:
        the fingerprints stay, so a later values update refactorizes the
        repaired partition instead of reverting it.
        """
        self._state.operator = operator

    def prepare(
        self, values_fp: Optional[str] = None, pattern_fp: Optional[str] = None
    ) -> Tuple[object, str]:
        """The reuse ladder: the operator for ``self.problem.a``.

        Returns ``(operator, rung)``, the rung keyed on the matrix
        fingerprints (computed here unless the caller already holds
        them, as the serving layer does):

        * ``"cold"`` -- no previous state, or a changed sparsity
          *pattern* (counted as a ``reuse_miss``): full build, under a
          fresh protection;
        * ``"refactor"`` -- same pattern, new values: numeric-only
          refactorization of the stored operator (phase (b) of the
          paper's setup split; SuperLU locals rebuild,
          ``symbolic_reusable`` kinds skip phase (a));
        * ``"skip"`` -- identical values: setup skipped entirely (the
          repeated-RHS path).

        Both reuse rungs are bit-identical to cold solves.
        """
        a = self.problem.a
        state = self._state
        rung = "cold"
        if state is not None:
            values_fp = values_fp or values_fingerprint(a)
            if values_fp == state.values_fp:
                rung = "skip"
            elif (pattern_fp or pattern_fingerprint(a)) == state.pattern_fp:
                rung = "refactor"
            else:
                get_artifact_cache().misses += 1
        if rung == "cold":
            self._state = None
            protection = (
                self.policy.protection(self) if self.policy else Protection()
            )
            with protection.context():
                operator = self.build_preconditioner()
            self._state = _ReuseState(
                operator,
                protection,
                pattern_fp or pattern_fingerprint(a),
                values_fp or values_fingerprint(a),
            )
            return operator, rung
        name = "reuse/refactor" if rung == "refactor" else "reuse/skip_setup"
        with state.protection.context(), get_tracer().span(name) as sp:
            sp.count("reuse_hits", 1.0)
            if rung == "refactor":
                state.operator.refactor(a)
                state.values_fp = values_fp
        return state.operator, rung

    def _pipeline(self, values_fp: Optional[str] = None) -> SessionResult:
        """One traced solve: prepare -> iterate -> report."""
        problem = self.problem
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("setup") as sp:
                sp.annotate(config=self.config.describe(),
                            partition=str(self.partition))
                operator, rung = self.prepare(values_fp=values_fp)
                if rung != "cold":
                    sp.annotate(reused=rung)
            protection = self._state.protection
            observer = None
            if self.verify is not None and not protection.injecting:
                # injected faults violate the Krylov invariants by
                # design, so the invariant observer stays off in chaos
                # runs
                from repro.verify import GmresInvariantObserver

                observer = GmresInvariantObserver()
            with protection.context():
                operator, failure = protection.wrap(operator, rung)
                with tracer.span("krylov"):
                    # the Krylov iteration always runs in working
                    # (double) precision on the unrounded operator
                    out = solve_with_restarts(
                        self.krylov, problem.a, problem.b, operator,
                        protection, observer=observer, failure=failure,
                    )
        tracer.finish()
        return self._report(tracer, out, rung, observer)

    def _report(
        self, tracer: Tracer, out: DriverResult, rung: str, observer
    ) -> SessionResult:
        """The one result builder (every entry point, every policy)."""
        problem = self.problem
        state = self._state
        x = out.x
        relres = float(
            np.linalg.norm(problem.a.matvec(x) - problem.b)
            / max(np.linalg.norm(problem.b), 1e-300)
        )
        status, policy_fields = state.protection.report(out)
        # a recovery (precision promotion, rank shrink) may have
        # replaced the operator: the ladder keeps what the solve ended on
        state.operator = unwrap(out.operator, protection_only=True)
        verification = None
        if self.verify is not None:
            from repro.verify import verify_run

            # the unprotected operator: a GuardedOperator would re-apply
            # its faults inside the verification solves.  An observer
            # that saw no cycle has nothing to check.
            verification = verify_run(
                problem.a,
                problem.b,
                x,
                out.residual_norms,
                state.operator,
                config=self.verify,
                nullspace=self.nullspace(),
                observer=observer if observer and observer.records else None,
            )
            if getattr(self.verify, "strict", True):
                verification.raise_on_failure()
        inner = unwrap(state.operator)
        return SessionResult(
            x=x,
            iterations=out.iterations,
            converged=out.converged,
            residual_norms=out.residual_norms,
            reduces=tracer.reduces,
            reduce_doubles=tracer.reduce_doubles,
            final_relres=relres,
            n_coarse=inner.n_coarse,
            n_ranks=inner.dec.n_subdomains,
            precond=out.operator,
            trace=tracer.root,
            verification=verification,
            status=status,
            setup_reused=rung != "cold",
            **policy_fields,
        )

    def solve(self) -> SessionResult:
        """Build the preconditioner and run the Krylov solve, traced.

        Always cold (:meth:`resolve` reuses what an earlier solve left
        behind).  Under a ``policy=``, a failure -- a breakdown caught
        by the residual watchdog, a lost rank -- re-enters the iteration
        through the policy's recovery with the tolerance re-anchored,
        until the solve converges or the policy gives up.
        """
        self._state = None
        return self._pipeline()

    # ------------------------------------------------------------------
    # amortized-setup solve sequences (repro.reuse)
    # ------------------------------------------------------------------
    def _apply_updates(self, b, a_new) -> None:
        """Swap in a new right-hand side and/or matrix (shallow copy)."""
        if b is None and a_new is None:
            return
        problem = copy.copy(self.problem)
        if b is not None:
            problem.b = np.asarray(b, dtype=np.float64)
        if a_new is not None:
            problem.a = a_new
        self.problem = problem

    def resolve(self, b=None, a_new=None) -> SessionResult:
        """Solve again, reusing whatever the previous solve allows.

        ``b`` and/or ``a_new`` replace the right-hand side / the matrix;
        :meth:`prepare` then takes the cheapest rung the fingerprints
        allow (skip, refactor, or a cold build when there is no previous
        solve or the pattern changed).  The same pipeline as
        :meth:`solve` runs, so a ``policy=`` protects re-solves too.
        """
        self._apply_updates(b, a_new)
        # no new matrix: hand the ladder the fingerprint it already
        # holds, so the skip rung is taken without hashing anything
        unchanged = a_new is None and self._state is not None
        return self._pipeline(self._state.values_fp if unchanged else None)

    def solve_sequence(self, bs, a_seq=None) -> List[SessionResult]:
        """Solve ``A_k x_k = b_k`` for a sequence, amortizing the setup.

        The first solve is cold; every later solve goes through
        :meth:`resolve`, so matching patterns pay only refactorization
        and matching values pay no setup at all (the paper's
        "Numerical Setup Time" amortization).

        Parameters
        ----------
        bs:
            Iterable of right-hand sides.
        a_seq:
            Optional iterable of matrices, one per right-hand side
            (None entries keep the current matrix).
        """
        bs = list(bs)
        if a_seq is None:
            a_list: List[Optional[CsrMatrix]] = [None] * len(bs)
        else:
            a_list = list(a_seq)
            if len(a_list) != len(bs):
                raise ValueError(
                    f"a_seq has {len(a_list)} entries for {len(bs)} "
                    f"right-hand sides"
                )
        return [self.resolve(b=b, a_new=a) for b, a in zip(bs, a_list)]
