"""The two-level GDSW preconditioner (Eq. 1) and its configuration.

``M^{-1} = Phi A_0^{-1} Phi^T + sum_i R_i^T A_i^{-1} R_i``

combining the one-level overlapping additive Schwarz operator with the
energy-minimizing GDSW/rGDSW coarse level:

* numeric setup -- factor the overlapping local matrices, build the
  interface basis, extend it harmonically (Eq. 2), assemble the coarse
  matrix ``A0 = Phi^T A Phi`` with SpGEMM, and factor ``A0``;
* apply -- one local solve per rank plus the coarse solve (replicated,
  entered through a coarse allreduce).

:class:`SchwarzConfig` is the one validated parameter list of the
preconditioner (the paper's Table I knobs plus the coarse-space
choice); :mod:`repro.config` and :mod:`repro.api` re-export it.

Every phase exposes per-rank :class:`~repro.machine.kernels.KernelProfile`
objects; the Summit-node model in :mod:`repro.runtime` turns them into
the paper's time tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.dd.coarse_space import (
    CoarseSpace,
    build_coarse_space,
    energy_minimizing_extension,
)
from repro.dd.decomposition import Decomposition
from repro.dd.interface import analyze_interface
from repro.dd.local_solvers import FactoredLocal, LocalSolverSpec
from repro.dd.schwarz import OneLevelSchwarz
from repro.machine.kernels import KernelProfile
from repro.obs import get_tracer
from repro.resilience.context import get_engine
from repro.reuse.cache import get_artifact_cache
from repro.reuse.fingerprint import partition_fingerprint, pattern_fingerprint
from repro.sparse.csr import CsrMatrix
from repro.sparse.spgemm import spgemm, spgemm_flops

__all__ = [
    "GDSWPreconditioner",
    "SchwarzConfig",
    "COARSE_VARIANTS",
    "COARSE_SPACES",
    "PRECISIONS",
]

#: valid coarse-space variants of :class:`SchwarzConfig`
COARSE_VARIANTS = ("rgdsw", "gdsw", "agdsw")
#: valid coarse-space families: the FEM-structured GDSW family
#: (selected further by ``variant``) or the fully algebraic spectral
#: space of :mod:`repro.dd.algebraic`
COARSE_SPACES = ("gdsw", "spectral")
#: valid working precisions of :class:`SchwarzConfig`
PRECISIONS = ("double", "single")
#: eigenvalue threshold of the AGDSW enrichment (``variant="agdsw"``)
ADAPTIVE_TOL = 1e-2


def _check(value: str, valid: Tuple[str, ...], what: str) -> None:
    if value not in valid:
        raise ValueError(
            f"unknown {what} {value!r}; valid values: "
            + ", ".join(repr(v) for v in valid)
        )


@dataclass(frozen=True)
class SchwarzConfig:
    """Preconditioner options, validated at construction.

    Attributes
    ----------
    local:
        Local subdomain solver (validated by
        :class:`~repro.dd.local_solvers.LocalSolverSpec` itself).
    coarse:
        Coarse-matrix solver; None selects the GDSW default (Tacho,
        natural ordering).
    extension:
        Solver for the interior extension solves of Eq. (2); None
        selects the GDSW default (Tacho, ND ordering).  Nonsymmetric
        operators (e.g. upwinded convection-diffusion via ``.mtx``)
        need ``LocalSolverSpec(kind="superlu")`` here and in
        ``local``/``coarse`` -- the Cholesky-based default assumes
        symmetry.
    overlap:
        Algebraic overlap layers (paper: 1).
    variant:
        Coarse space: ``"rgdsw"`` (paper), ``"gdsw"`` or ``"agdsw"``
        (the adaptive enrichment for heterogeneous coefficients;
        Section III).
    precision:
        ``"double"`` or ``"single"`` (HalfPrecisionOperator wrapping).
    dim:
        Spatial dimension for interface classification: 2 or 3.
    coarse_space:
        Coarse-space family: ``"gdsw"`` (default -- the FEM-structured
        GDSW family, refined by ``variant``) or ``"spectral"`` (the
        fully algebraic SPSD-splitting / GenEO space of
        :mod:`repro.dd.algebraic`; needs no null space or geometry, so
        it accepts arbitrary assembled matrices, e.g. MatrixMarket
        inputs).
    tau:
        Spectral eigenvalue threshold: generalized eigenmodes with
        ``lambda <= tau`` enter the coarse space
        (``coarse_space="spectral"`` only).
    max_vectors_per_subdomain:
        Per-subdomain cap on spectral coarse vectors
        (``coarse_space="spectral"`` only).
    """

    local: LocalSolverSpec = field(default_factory=LocalSolverSpec)
    coarse: Optional[LocalSolverSpec] = None
    extension: Optional[LocalSolverSpec] = None
    overlap: int = 1
    variant: str = "rgdsw"
    precision: str = "double"
    dim: int = 3
    coarse_space: str = "gdsw"
    tau: float = 1e-2
    max_vectors_per_subdomain: int = 8

    def __post_init__(self) -> None:
        _check(self.variant, COARSE_VARIANTS, "coarse-space variant")
        _check(self.coarse_space, COARSE_SPACES, "coarse-space family")
        _check(self.precision, PRECISIONS, "precision")
        if self.overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {self.overlap}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.max_vectors_per_subdomain < 1:
            raise ValueError(
                f"max_vectors_per_subdomain must be >= 1, "
                f"got {self.max_vectors_per_subdomain}"
            )

    def key(self) -> tuple:
        """The identity of the preconditioner this config builds.

        The preconditioner half of a serving shard key: each solver
        spec contributes :meth:`LocalSolverSpec.key` (aliases resolved,
        fields its kind ignores dropped) and the spectral parameters
        count only for the spectral space.
        """
        return (
            self.local.key(),
            None if self.extension is None else self.extension.key(),
            None if self.coarse is None else self.coarse.key(),
            self.overlap,
            self.variant,
            self.precision,
            self.dim,
            self.coarse_space,
            (self.tau, self.max_vectors_per_subdomain)
            if self.coarse_space == "spectral"
            else None,
        )

    def describe(self) -> str:
        """One-line summary used by trace annotations and tables.

        Display only (a serving shard keys on :meth:`key`): default
        configurations keep the historical format byte-for-byte, and a
        coarse solver, a 2-D interface classification or a spectral
        space append themselves.
        """
        base = (
            f"{self.variant} overlap={self.overlap} "
            f"local=[{self.local.describe()}] {self.precision}"
        )
        if self.extension is not None:
            base += f" ext=[{self.extension.describe()}]"
        if self.coarse is not None:
            base += f" coarse=[{self.coarse.describe()}]"
        if self.dim != 3:
            base += f" dim={self.dim}"
        if self.coarse_space == "spectral":
            base += (
                f" spectral tau={self.tau:g} "
                f"maxvec={self.max_vectors_per_subdomain}"
            )
        return base


class GDSWPreconditioner:
    """Two-level overlapping Schwarz preconditioner of GDSW type.

    Parameters
    ----------
    dec:
        Nonoverlapping decomposition of the assembled problem.
    nullspace:
        ``(n, n_n)`` Neumann null space (rigid-body modes / constants);
        the spectral coarse space ignores it.
    config:
        :class:`SchwarzConfig` (defaults to the paper configuration).
        ``coarse_space="spectral"`` selects the fully algebraic
        SPSD-splitting / GenEO coarse space of :mod:`repro.dd.algebraic`
        (``variant`` is then unused); its same-pattern :meth:`refactor`
        reuses the eigenvectors while the values drift by at most
        ``0.1 * tau`` -- drift well inside the eigenvalue threshold's
        sensitivity cannot move vectors across the ``tau`` cut.
    reuse_from:
        An existing preconditioner over the *same matrix values* whose
        untouched local factorizations should be reused (forwarded to
        :class:`~repro.dd.schwarz.OneLevelSchwarz`); the shrink-recovery
        path of :meth:`remove_subdomain` passes the pre-failure
        preconditioner here.
    """

    def __init__(
        self,
        dec: Decomposition,
        nullspace: np.ndarray,
        config: Optional[SchwarzConfig] = None,
        reuse_from: "GDSWPreconditioner | None" = None,
    ) -> None:
        config = config or SchwarzConfig()
        self.dec = dec
        self.config = config
        variant = (
            "spectral" if config.coarse_space == "spectral" else config.variant
        )
        self.variant = variant
        # what :meth:`remove_subdomain` needs to rebuild over a
        # repaired partition
        self._nullspace = nullspace
        self._spectral_ref_values: Optional[np.ndarray] = None

        tr = get_tracer()

        # ---- one-level part ----
        self.one_level = OneLevelSchwarz(
            dec,
            config.local,
            overlap=config.overlap,
            reuse_from=None if reuse_from is None else reuse_from.one_level,
        )

        # ---- coarse level ----
        with tr.span("setup/coarse_basis") as sp:
            sp.annotate(variant=variant)
            # interface classification is pattern-only (node graph +
            # partition + dim), so it shares the ambient artifact cache
            cache = get_artifact_cache()
            akey = (
                "interface",
                pattern_fingerprint(dec.a),
                partition_fingerprint(dec.node_parts),
                config.dim,
            )
            analysis = cache.get(akey)
            if analysis is None:
                analysis = analyze_interface(dec, dim=config.dim)
                cache.put(akey, analysis)
            self.analysis = analysis
            if variant == "agdsw":
                from repro.dd.adaptive import build_adaptive_coarse_space

                self.space: CoarseSpace = build_adaptive_coarse_space(
                    dec, self.analysis, nullspace, tol=ADAPTIVE_TOL
                )
            elif variant == "spectral":
                from repro.dd.algebraic import build_spectral_coarse_space

                self.space = build_spectral_coarse_space(
                    dec,
                    self.analysis,
                    tau=config.tau,
                    max_vectors_per_subdomain=config.max_vectors_per_subdomain,
                    node_sets=self.one_level.node_sets,
                )
                self._spectral_ref_values = dec.a.data.copy()
                sp.annotate(tau=config.tau)
            else:
                self.space = build_coarse_space(
                    dec, self.analysis, nullspace, variant=variant
                )
            sp.count("coarse_dim", float(self.space.n_coarse))

        extension_spec = config.extension or LocalSolverSpec(
            kind="tacho", ordering="nd"
        )

        def _ext_factory():
            from repro.direct import direct_solver

            kind = "tacho" if extension_spec.kind != "superlu" else "superlu"
            return direct_solver(kind, ordering=extension_spec.ordering)

        # state the refactorization path reuses (see :meth:`refactor`)
        self._ext_factory = _ext_factory
        self._ext_solver_cache: dict = {}
        self._coarse_spec = config.coarse or LocalSolverSpec(
            kind="tacho", ordering="natural"
        )

        self._ext_rank_profiles: List[KernelProfile]
        if self.space.n_coarse > 0:
            self.a0 = self._extend_and_project(dec, "setup/coarse_basis")
            with tr.span("setup/coarse_factor") as sp:
                sp.annotate(n_coarse=int(self.space.n_coarse))
                self.coarse = self._coarse_spec.build(self.a0)
        else:  # single subdomain: no interface, pure one-level
            self.phi = None
            self.a0 = None
            self.coarse = None
            self._ext_spgemm = KernelProfile()
            self._ext_rank_profiles = [KernelProfile() for _ in dec.node_parts]
            self._a0_flops = 0

        self._compute_phi_rank_nnz()

    def _extend_and_project(self, dec: Decomposition, span: str) -> CsrMatrix:
        """Extend the interface basis harmonically (Eq. 2) over ``dec``'s
        values and return the Galerkin product ``A0 = Phi^T A Phi``."""
        tr = get_tracer()
        with tr.span(span) as sp:
            phi, ext_spgemm, ext_ranks = energy_minimizing_extension(
                dec,
                self.analysis,
                self.space,
                self._ext_factory,
                solver_cache=self._ext_solver_cache,
            )
            sp.add_profile(ext_spgemm)
        self.phi: Optional[CsrMatrix] = phi
        self._ext_spgemm = ext_spgemm
        self._ext_rank_profiles = ext_ranks
        with tr.span("setup/spgemm") as sp:
            at_phi = spgemm(dec.a, phi)
            self._a0_flops = spgemm_flops(dec.a, phi)
            phi_t = phi.transpose()
            a0 = spgemm(phi_t, at_phi)
            self._a0_flops += spgemm_flops(phi_t, at_phi)
            sp.count("flops", float(self._a0_flops))
            sp.count("nnz", float(a0.nnz))
        return a0

    def _compute_phi_rank_nnz(self) -> None:
        """Per-rank nnz of Phi restricted to owned dofs (apply-cost split)."""
        dec = self.dec
        if self.phi is not None:
            row_nodes = (
                np.repeat(np.arange(dec.a.n_rows, dtype=np.int64), self.phi.row_nnz())
                // dec.dofs_per_node
            )
            owners = dec.node_owner[row_nodes]
            self._phi_rank_nnz = np.bincount(
                owners, minlength=dec.n_subdomains
            ).astype(np.int64)
        else:
            self._phi_rank_nnz = np.zeros(dec.n_subdomains, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def n_coarse(self) -> int:
        """Coarse-space dimension ``n_c * n_n`` (after rank reduction)."""
        return self.space.n_coarse

    # ------------------------------------------------------------------
    def _refresh_spectral_space(self, dec_new: Decomposition) -> None:
        """Drift-gated spectral coarse-space reuse for :meth:`refactor`.

        The spectral (GenEO/SPSD) coarse vectors are *value*-dependent,
        unlike the pattern-only GDSW/rGDSW interface basis.  Recomputing
        the per-subdomain eigenproblems on every refactorization would
        erase most of the reuse win, so the refactor path keeps the
        vectors while the values drift (relative inf-norm against the
        values they were computed from) stays within ``0.1 * tau`` --
        drift far inside the ``tau`` eigenvalue cut cannot move vectors
        across it.  Past the threshold the space is rebuilt from the
        same interface analysis and overlap node sets, which makes the
        result bit-identical to a cold construction over the new values.
        """
        tr = get_tracer()
        ref = self._spectral_ref_values
        new_values = dec_new.a.data
        scale = float(np.max(np.abs(ref))) if ref is not None else 0.0
        if ref is None or scale == 0.0:
            drift = np.inf
        else:
            drift = float(np.max(np.abs(new_values - ref))) / scale
        tol = 0.1 * self.config.tau
        if drift <= tol:
            with tr.span("reuse/spectral_reuse") as sp:
                sp.annotate(drift=drift, tol=tol)
                sp.count("spectral_vectors_reused", float(self.space.n_coarse))
            return
        from repro.dd.algebraic import build_spectral_coarse_space

        with tr.span("reuse/spectral_rebuild") as sp:
            sp.annotate(drift=drift, tol=tol)
            self.space = build_spectral_coarse_space(
                dec_new,
                self.analysis,
                tau=self.config.tau,
                max_vectors_per_subdomain=self.config.max_vectors_per_subdomain,
                node_sets=self.one_level.node_sets,
            )
            self._spectral_ref_values = new_values.copy()
            sp.count("coarse_dim", float(self.space.n_coarse))

    # ------------------------------------------------------------------
    def refactor(self, a_new: CsrMatrix) -> None:
        """Numeric-only refactorization for a same-pattern matrix.

        Executes the paper's phase (b) end to end: local numeric
        refactorizations (symbolic reused where ``symbolic_reusable``),
        interior extension re-solves through the cached interior
        factorizations, the coarse SpGEMM, and the coarse
        refactorization.  The interface analysis, overlap plan, and
        coarse-space structure (``Phi_Gamma``) are pattern-only and
        reused as-is; ``Phi`` itself is value-dependent (harmonic
        extension of the new values) and is recomputed, so a drifted
        ``A0`` *pattern* (the ``|x| > 1e-14`` sparsification of Phi)
        falls back to a cold coarse factorization.
        """
        tr = get_tracer()
        dec_new = self.dec.with_values(a_new)
        self.dec = dec_new
        self.one_level.refactor(dec_new)
        if self.variant == "spectral":
            self._refresh_spectral_space(dec_new)
        if self.space.n_coarse == 0:
            self.phi = None
            self.a0 = None
            self.coarse = None
            self._compute_phi_rank_nnz()
            return
        a0_new = self._extend_and_project(dec_new, "reuse/extension_refactor")
        with tr.span("reuse/coarse_refactor") as sp:
            same_pattern = self.a0 is not None and pattern_fingerprint(
                a0_new
            ) == pattern_fingerprint(self.a0)
            self.a0 = a0_new
            if same_pattern and isinstance(self.coarse, FactoredLocal):
                sp.annotate(reused_symbolic=self.coarse.symbolic_reusable)
                self.coarse = self.coarse.refactor(a0_new)
            else:
                sp.annotate(reused_symbolic=False)
                self.coarse = self._coarse_spec.build(a0_new)
        self._compute_phi_rank_nnz()

    def remove_subdomain(
        self, dead: int, into: "int | None" = None
    ) -> "GDSWPreconditioner":
        """The preconditioner repaired after losing subdomain ``dead``.

        The *shrink* recovery of :mod:`repro.ft`: the dead rank's
        nonoverlapping part is merged into a neighbor
        (:meth:`~repro.dd.decomposition.Decomposition.merge_into_neighbor`)
        and a preconditioner over the merged partition is returned.  The
        matrix values are unchanged, so one-level local factorizations
        whose overlapping dof sets survive the merge are reused as-is
        (``reuse_from``) -- only subdomains overlapping the merged
        region refactor.  The coarse level is rebuilt from scratch: the
        interface moves wherever the partition does, and Al Daas-style
        robustness arguments make the coarse space exactly the object
        that must track the new partition.
        """
        dec_new = self.dec.merge_into_neighbor(dead, into)
        with get_tracer().span("ft/precond_repair") as sp:
            sp.annotate(
                dead_rank=int(dead),
                n_subdomains=int(dec_new.n_subdomains),
            )
            return self._rebuilt_over(dec_new)

    def _rebuilt_over(self, dec_new: Decomposition) -> "GDSWPreconditioner":
        """The same configuration over a repaired partition of the same
        matrix, reusing every local factorization the repair left alone."""
        return GDSWPreconditioner(
            dec_new, self._nullspace, self.config, reuse_from=self
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1} v`` (additive combination of both levels).

        ``v`` is a vector or an ``(n, k)`` block of columns; column
        ``j`` of a block result equals the apply of column ``j`` bit
        for bit.
        """
        v = np.asarray(v, dtype=np.float64)
        out = self.one_level.apply(v)
        if self.phi is not None:
            with get_tracer().span("apply/coarse_solve") as sp:
                sp.count("coarse_dim", float(self.n_coarse))
                vc = self.phi.rmatvec(v)
                xc = self.coarse.apply(vc)
                eng = get_engine()
                if eng is not None:
                    xc = eng.check_coarse(xc)
                out = out + self.phi.matmat(xc)
        return out

    # ------------------------------------------------------------------
    # cost profiles
    # ------------------------------------------------------------------
    def rank_setup_profile(self, rank: int, refactorization: bool = False) -> KernelProfile:
        """Numeric-setup kernels executed by ``rank``.

        ``refactorization=True`` models the repeated-factorization
        scenario (same pattern, new values): symbolic work is skipped
        where the solver allows reuse.
        """
        prof = KernelProfile()
        prof.extend(
            self.one_level.rank_setup_profile(
                rank, include_symbolic=not refactorization
            )
        )
        prof.extend(self._ext_rank_profiles[rank])
        # distributed share of the coarse SpGEMM + its communication
        n_ranks = self.dec.n_subdomains
        if self.phi is not None and self._a0_flops:
            share = self._a0_flops / n_ranks
            prof.add(
                "coarse.spgemm_a0",
                flops=float(share),
                bytes=float(share * 8),
                parallelism=float(max(self._phi_rank_nnz[rank], 1)),
            )
            prof.add(
                "comm.coarse_assembly",
                flops=0.0,
                bytes=float(self.a0.nnz * 16 / max(n_ranks, 1) + self.n_coarse * 8),
                parallelism=1.0,
            )
            # distributed coarse factorization: the coarse problem lives
            # on a subcommunicator, so each rank carries a 1/P share
            share_f = 1.0 / n_ranks
            if not refactorization or not self.coarse.symbolic_reusable:
                prof.extend(self.coarse.symbolic_profile.work_scaled(share_f))
            prof.extend(self.coarse.numeric_profile.work_scaled(share_f))
            prof.extend(self.coarse.setup_profile.work_scaled(share_f))
        return prof

    def rank_apply_profile(self, rank: int) -> KernelProfile:
        """Kernels of one preconditioner application on ``rank``."""
        prof = self.one_level.rank_solve_profile(rank)
        if self.phi is not None:
            nnz_r = float(self._phi_rank_nnz[rank])
            nc = float(self.n_coarse)
            prof.add(
                "coarse.phi_restrict",
                flops=2.0 * nnz_r,
                bytes=nnz_r * 16.0 + nc * 8.0,
                parallelism=max(nnz_r, 1.0),
            )
            prof.add(
                "comm.coarse_allreduce", flops=0.0, bytes=nc * 8.0, parallelism=1.0
            )
            # distributed coarse solve: 1/P share per rank
            prof.extend(
                self.coarse.solve_profile.work_scaled(1.0 / self.dec.n_subdomains)
            )
            prof.add(
                "coarse.phi_prolong",
                flops=2.0 * nnz_r,
                bytes=nnz_r * 16.0 + nc * 8.0,
                parallelism=max(nnz_r, 1.0),
            )
        return prof

    def halo_doubles(self, rank: int) -> int:
        """Halo payload (float64 count) of one apply on ``rank``."""
        return self.one_level.halo_doubles[rank]
