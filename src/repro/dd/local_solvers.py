"""Subdomain (and coarse) solver menu.

Table I of the paper: the local overlapping subdomain problems can be
solved exactly (SuperLU or Tacho direct factorizations), inexactly
(level-set ILU(k) + SpTRSV), or approximately-iteratively (FastILU +
FastSpTRSV).  A :class:`LocalSolverSpec` names the combination; its
:meth:`~LocalSolverSpec.build` factors one subdomain matrix and returns
a :class:`FactoredLocal`: the solve *described* as permutation, scaling
and triangular stages (:class:`~repro.tri.factored.FactoredSolve`), a
uniform ``apply`` derived from that description, plus the per-phase
kernel profiles the harness prices.

GPU-vs-CPU pairing follows Section VIII-A exactly:

* ``superlu`` -- factorization always on the CPU; the *solve* runs
  either through SuperLU's internal substitution (CPU) or through the
  supernodal Kokkos-Kernels SpTRSV (GPU), whose setup must rerun after
  every numeric factorization (``gpu_solve=True``).
* ``tacho`` -- factorization and supernodal solves on either space.
* ``iluk`` -- level-set scheduled SpILU + exact SpTRSV.
* ``fastilu`` -- Jacobi-sweep factorization + FastSpTRSV solves.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from repro.machine.kernels import KernelProfile
from repro.ordering import ORDERING_ALIASES, canonical_ordering
from repro.sparse.blocks import inverse_permutation
from repro.sparse.csr import CsrMatrix
from repro.tri.factored import FactoredSolve

__all__ = ["LocalSolverSpec", "FactoredLocal", "SOLVER_KINDS", "ORDERINGS"]

#: valid local-solver kinds (Table I of the paper)
SOLVER_KINDS = ("superlu", "tacho", "iluk", "fastilu")
#: valid fill-reducing orderings: every name and alias repro.ordering
#: resolves, each accepted by every solver kind
ORDERINGS = tuple(ORDERING_ALIASES)
#: the fields each kind's build reads besides ``kind`` and ``ordering``
_KIND_FIELDS = {
    "superlu": ("gpu_solve",),
    "tacho": (),
    "iluk": ("ilu_level",),
    "fastilu": (
        "ilu_level", "factor_sweeps", "solve_sweeps",
        "factor_damping", "solve_damping",
    ),
}


@dataclass(frozen=True)
class LocalSolverSpec:
    """Configuration of a local solver (one cell of Table I/IV).

    Attributes
    ----------
    kind:
        ``"superlu"``, ``"tacho"``, ``"iluk"`` or ``"fastilu"``.
    ordering:
        ``"nd"`` (METIS-like nested dissection) or ``"natural"``
        (Table IV's "ND"/"No" rows).
    ilu_level:
        Fill level for the incomplete kinds.
    factor_sweeps:
        FastILU factorization sweeps (paper default 3).
    solve_sweeps:
        FastSpTRSV solve sweeps (paper default 5).
    factor_damping, solve_damping:
        Damping factors of the two fixed-point iterations (the "Jacobi
        iteration count and damping factor" knobs of Table I); the
        undamped iterations can diverge on stiff elasticity blocks.
    gpu_solve:
        Use the GPU solve pairing (supernodal SpTRSV for superlu;
        level-set vs Fast pairing is implied by ``kind``).
    """

    kind: str = "tacho"
    ordering: str = "nd"
    ilu_level: int = 1
    factor_sweeps: int = 3
    solve_sweeps: int = 5
    factor_damping: float = 0.7
    solve_damping: float = 0.8
    gpu_solve: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SOLVER_KINDS:
            raise ValueError(
                f"unknown local solver kind {self.kind!r}; valid kinds: "
                + ", ".join(repr(k) for k in SOLVER_KINDS)
            )
        canonical_ordering(self.ordering)  # raises, listing the valid names
        if self.ilu_level < 0:
            raise ValueError(f"ilu_level must be >= 0, got {self.ilu_level}")
        for name in ("factor_damping", "solve_damping"):
            damping = getattr(self, name)
            if not 0.0 < damping <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {damping}")

    def with_gpu(self, gpu_solve: bool) -> "LocalSolverSpec":
        """Copy with the GPU pairing switched."""
        return replace(self, gpu_solve=gpu_solve)

    def key(self) -> tuple:
        """The identity of the solver this spec builds.

        ``kind``, the canonical ordering (aliases resolved) and only
        the fields that kind reads: equal keys build the same factor.
        A serving shard keys on this, never on :meth:`describe`.
        """
        return (self.kind, canonical_ordering(self.ordering)) + tuple(
            getattr(self, name) for name in _KIND_FIELDS[self.kind]
        )

    def describe(self) -> str:
        """One-line human description, used by trace/table output.

        Examples: ``"tacho (nd, cpu solve)"``,
        ``"iluk(1) (natural, gpu solve)"``,
        ``"fastilu(1, 3/5 sweeps) (nd, gpu solve)"``.
        """
        name = self.kind
        if self.kind == "iluk":
            name = f"iluk({self.ilu_level})"
        elif self.kind == "fastilu":
            name = (
                f"fastilu({self.ilu_level}, "
                f"{self.factor_sweeps}/{self.solve_sweeps} sweeps)"
            )
        space = "gpu" if self.gpu_solve else "cpu"
        return f"{name} ({self.ordering}, {space} solve)"

    def build(self, a: CsrMatrix) -> "FactoredLocal":
        """Factor one subdomain matrix according to this spec."""
        if self.kind == "superlu":
            return _build_superlu(a, self)
        if self.kind == "tacho":
            return _build_tacho(a, self)
        if self.kind == "iluk":
            return _build_iluk(a, self)
        return _build_fastilu(a, self)


class FactoredLocal:
    """A factored local problem with uniform apply and profiles.

    Attributes
    ----------
    stages:
        The :class:`~repro.tri.factored.FactoredSolve` description of
        the (approximate) local inverse ``A_i^{-1}``: permutation and
        scaling stages around the two triangular factors.
        :meth:`apply` executes it; :class:`~repro.dd.schwarz.OneLevelSchwarz`
        merges the descriptions of all subdomains into one
        block-diagonal solve.
    symbolic_profile:
        Pattern-analysis work, reusable across refactorizations when
        ``symbolic_reusable``.
    numeric_profile:
        Per-refactorization factorization work.
    setup_profile:
        Per-refactorization *solver setup* work (e.g. the KK supernodal
        SpTRSV setup over SuperLU factors).
    solve_profile:
        One application of the local solve.
    cpu_only_numeric:
        True when the numeric factorization cannot run on the GPU
        (SuperLU); the pricing layer then charges it to the CPU even in
        GPU runs.
    symbolic_record:
        The immutable symbolic record the solver behind ``stages`` used,
        shared with the solvers of congruent subdomains
        (:func:`repro.reuse.symbolic.shared_symbolic`).  The shared
        store is weak: holding the record here keeps it available to
        siblings for as long as this factorization lives.
    """

    def __init__(
        self,
        stages: FactoredSolve,
        symbolic_profile: KernelProfile,
        numeric_profile: KernelProfile,
        setup_profile: KernelProfile,
        solve_profile: KernelProfile,
        symbolic_reusable: bool,
        cpu_only_numeric: bool = False,
        exact: bool = True,
        refactor_fn=None,
        symbolic_record=None,
    ) -> None:
        self.stages = stages
        self.symbolic_profile = symbolic_profile
        self.numeric_profile = numeric_profile
        self.setup_profile = setup_profile
        self.solve_profile = solve_profile
        self.symbolic_reusable = symbolic_reusable
        self.cpu_only_numeric = cpu_only_numeric
        self.exact = exact
        self._refactor_fn = refactor_fn
        self.symbolic_record = symbolic_record

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply the (approximate) local inverse (1-D or ``(n, k)`` ``v``)."""
        return self.stages.apply(v)

    def refactor(self, a_new: CsrMatrix) -> "FactoredLocal":
        """Numeric-only refactorization over a same-pattern matrix.

        Returns a fresh :class:`FactoredLocal` with updated factors.
        Kinds with ``symbolic_reusable`` skip the symbolic phase (their
        pattern guards raise
        :class:`~repro.reuse.fingerprint.PatternChangedError` on
        pattern drift).  SuperLU replays its recorded pivot sequence
        (:meth:`~repro.direct.gp_lu.GilbertPeierlsLU.refactorize`,
        bit-equal to a fresh factorization) and re-runs the full
        factorization when the new values would pivot differently; its
        profiles keep pricing the full re-symbolic refactorization
        either way.
        """
        if self._refactor_fn is None:
            raise RuntimeError(
                "this FactoredLocal was built without a refactor path; "
                "rebuild it via LocalSolverSpec.build"
            )
        return self._refactor_fn(a_new)


# ----------------------------------------------------------------------
def _build_superlu(a: CsrMatrix, spec: LocalSolverSpec) -> FactoredLocal:
    from repro.direct import GilbertPeierlsLU

    slu = GilbertPeierlsLU(ordering=spec.ordering)
    slu.factorize(a)
    return _wrap_superlu(slu, spec)


def _refactor_superlu(record, a_new: CsrMatrix, spec: LocalSolverSpec) -> FactoredLocal:
    """Refactor a copy of the pivot ``record`` over ``a_new``.

    :meth:`~repro.direct.gp_lu.GilbertPeierlsLU.refactorize` replays the
    recorded pivot sequence, else rebuilds, and annotates the enclosing
    span (``reuse/local_refactor``) with which one ran.  The record
    itself stays as it is, so this local can be refactored again.
    """
    return _wrap_superlu(copy.copy(record).refactorize(a_new), spec)


def _wrap_superlu(slu, spec: LocalSolverSpec) -> FactoredLocal:
    # The modeled clock prices every refactorization as the paper's
    # SuperLU runs it, a full rebuild: partial pivoting couples the
    # factor structure to the values (symbolic_reusable is False).  The
    # executed refactorization replays the recorded pivot sequence
    # instead whenever that gives the same factors.
    record = slu.pivot_record()
    refactor = lambda a_new: _refactor_superlu(record, a_new, spec)  # noqa: E731
    setup = KernelProfile()
    stages, solve_prof = slu.stages, slu.solve_profile
    if spec.gpu_solve:
        # supernodal KK SpTRSV over the LU factors: detection + block
        # assembly rerun after EVERY numeric factorization (pivoting).
        snl, setup_l = slu.supernodal_l()
        from repro.tri.supernodal import SupernodalTriangular

        u_csr = slu.u_csr
        snu = SupernodalTriangular.from_csc(
            u_csr.indptr, u_csr.indices, u_csr.data, u_csr.n_rows
        )
        setup.extend(setup_l)
        setup.add(
            "setup.sptrsv_numeric",
            flops=0.0,
            bytes=float(u_csr.nnz * 48),
            parallelism=float(snu.n_supernodes),
        )
        stages = replace(
            stages, lower=(snl, "solve_forward"), upper=(snu, "solve_backward")
        )
        solve_prof = KernelProfile()
        solve_prof.extend(snl.kernel_profile())
        solve_prof.extend(snu.kernel_profile())
    return FactoredLocal(
        stages,
        slu.symbolic_profile,
        slu.numeric_profile,
        setup,
        solve_prof,
        symbolic_reusable=False,
        cpu_only_numeric=True,
        refactor_fn=refactor,
        symbolic_record=slu.symbolic_record,
    )


def _build_tacho(a: CsrMatrix, spec: LocalSolverSpec) -> FactoredLocal:
    from repro.direct import MultifrontalCholesky

    t = MultifrontalCholesky(ordering=spec.ordering)
    t.factorize(a)
    return _wrap_tacho(t, spec)


def _wrap_tacho(t, spec: LocalSolverSpec) -> FactoredLocal:
    return FactoredLocal(
        t.stages,
        t.symbolic_profile,
        t.numeric_profile,
        KernelProfile(),
        t.solve_profile,
        symbolic_reusable=True,
        refactor_fn=lambda a_new: _wrap_tacho(t.refactorize(a_new), spec),
        symbolic_record=t.symbolic_record,
    )


def _build_iluk(a: CsrMatrix, spec: LocalSolverSpec) -> FactoredLocal:
    from repro.ilu import IlukFactorization

    f = IlukFactorization(level=spec.ilu_level, ordering=spec.ordering)
    f.symbolic(a).numeric(a)
    return _wrap_iluk(f, spec)


def _wrap_iluk(f, spec: LocalSolverSpec) -> FactoredLocal:
    from repro.tri.levelset import LevelScheduledTriangular

    lsol = LevelScheduledTriangular(f.l, lower=True, unit_diagonal=True)
    usol = LevelScheduledTriangular(f.u, lower=False)
    solve_prof = KernelProfile()
    solve_prof.extend(lsol.kernel_profile())
    solve_prof.extend(usol.kernel_profile())
    setup = KernelProfile()
    setup.add(
        "setup.sptrsv_levels",
        flops=0.0,
        bytes=float((f.l.nnz + f.u.nnz) * 12),
        parallelism=1.0,
    )
    return FactoredLocal(
        FactoredSolve(
            perm_in=f.perm,
            lower=(lsol, "solve"),
            upper=(usol, "solve"),
            perm_out=inverse_permutation(f.perm),
        ),
        f.symbolic_profile,
        f.numeric_profile,
        setup,
        solve_prof,
        symbolic_reusable=True,
        exact=False,
        refactor_fn=lambda a_new: _wrap_iluk(f.numeric(a_new), spec),
        symbolic_record=f.symbolic_record,
    )


def _build_fastilu(a: CsrMatrix, spec: LocalSolverSpec) -> FactoredLocal:
    from repro.ilu import FastIlu

    f = FastIlu(
        level=spec.ilu_level,
        sweeps=spec.factor_sweeps,
        ordering=spec.ordering,
        damping=spec.factor_damping,
    )
    f.symbolic(a).numeric(a)
    return _wrap_fastilu(f, spec)


def _wrap_fastilu(f, spec: LocalSolverSpec) -> FactoredLocal:
    from repro.tri.jacobi import JacobiTriangular

    lsol = JacobiTriangular(
        f.l, sweeps=spec.solve_sweeps, unit_diagonal=True, damping=spec.solve_damping
    )
    usol = JacobiTriangular(f.u, sweeps=spec.solve_sweeps, damping=spec.solve_damping)
    solve_prof = KernelProfile()
    solve_prof.extend(lsol.kernel_profile())
    solve_prof.extend(usol.kernel_profile())
    return FactoredLocal(
        FactoredSolve(
            perm_in=f.perm,
            lower=(lsol, "solve"),
            upper=(usol, "solve"),
            perm_out=inverse_permutation(f.perm),
            # the factors approximate S A S (see FastIlu.numeric)
            scale_in=f.row_scale,
            scale_out=f.row_scale,
        ),
        f.symbolic_profile,
        f.numeric_profile,
        KernelProfile(),
        solve_prof,
        symbolic_reusable=True,
        exact=False,
        refactor_fn=lambda a_new: _wrap_fastilu(f.numeric(a_new), spec),
        symbolic_record=f.symbolic_record,
    )
