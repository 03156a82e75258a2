"""Algebraic invariants of the two-level Schwarz solve.

Every quantity the reproduction reports rests on a small set of exact
algebraic identities.  This module checks them after (or during) a
solve, so that a numerical regression -- a mispriced halo, an
orthogonality loss that the lagged norm estimate papers over, an
overlap extraction that destroys symmetry -- fails loudly instead of
silently bending an iteration count or a modeled second:

* **residual drift** -- the Krylov recurrence estimate of ``||b - Ax||``
  must agree with the explicitly recomputed residual to within
  ``residual_drift_tol`` relative to the initial residual;
* **Arnoldi orthogonality** -- ``||V V^T - I||_max`` of each cycle's
  basis stays below ``orthogonality_tol`` (recorded by
  :class:`~repro.verify.observers.GmresInvariantObserver`);
* **overlap extraction** -- every overlapping local matrix
  ``A_i = R_i A R_i^T`` stays symmetric (exact: extraction permutes and
  selects entries) and positive definite (checked by dense Cholesky on
  subdomains up to ``spd_check_cap`` rows);
* **coarse basis** -- the GDSW/rGDSW interface weights partition unity,
  the harmonic extension satisfies Eq. (2)
  (``A_II Phi_I + A_IGamma Phi_Gamma = 0``: the interior rows of
  ``A Phi`` vanish), and the interface basis reproduces the Neumann
  null space.

:func:`verify_run` bundles the checks into a
:class:`VerificationReport`; :class:`~repro.api.SolverSession` runs it
when constructed with ``verify=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.dd.wrapper import unwrap

__all__ = [
    "InvariantCheck",
    "VerificationError",
    "VerificationReport",
    "VerifyConfig",
    "check_coarse_basis",
    "check_overlap_operator",
    "check_residual_drift",
    "check_spectral_space",
    "verify_run",
]


class VerificationError(RuntimeError):
    """Raised (in strict mode) when an invariant check fails."""


@dataclass(frozen=True)
class VerifyConfig:
    """Tolerances and scope of the invariant suite.

    Attributes
    ----------
    residual_drift_tol:
        Allowed ``|estimate - true| / ||r0||`` between the recurrence
        residual and the recomputed ``||b - Ax||``.
    orthogonality_tol:
        Allowed ``||V V^T - I||_max`` per GMRES cycle.  The default
        matches the loss budget of the single-reduce scheme's selective
        reorthogonalization (``_ORTHO_LOSS_BUDGET`` amplified by the
        iterations between second passes) -- tight enough to catch the
        orthogonality collapse an under-triggered reorthogonalization
        produces, loose enough for one-reduce iterations to stay the
        common case.
    symmetry_tol:
        Allowed relative asymmetry ``max|A_i - A_i^T| / max|A_i|`` of
        the overlapping local matrices (0 would also hold: extraction
        moves entries verbatim).
    spd_check_cap:
        Local matrices with more rows than this skip the dense-Cholesky
        SPD check (cost control; symmetry is still checked).
    pou_tol:
        Allowed deviation of the coarse interface weights from summing
        to one at every interface node.
    extension_tol:
        Allowed relative magnitude of the interior rows of ``A Phi``
        (zero by Eq. (2) up to the extension solves' accuracy).
    nullspace_tol:
        Allowed relative residual of reproducing the Neumann null space
        from the interface basis ``Phi_Gamma``.
    spsd_tol:
        Allowed relative negativity ``-lambda_min / max|tilde A_i|`` of
        each subdomain's recomputed local SPSD splitting (spectral
        coarse spaces only; the splitting is SPSD up to roundoff for
        the M-matrix-like operators the construction targets).
    strict:
        When run through :class:`~repro.api.SolverSession`, raise
        :class:`VerificationError` on failure instead of only recording
        it on the result.
    diff_distributed:
        Also diff the sequential numerics against the message-faithful
        distributed execution (:func:`repro.verify.diff.diff_executions`).
    audit_cost_model:
        Also replay a priced trace against the simulated MPI layer's
        counters (:func:`repro.verify.cost_audit.audit_cost_model`).
    """

    residual_drift_tol: float = 1e-6
    orthogonality_tol: float = 1e-6
    symmetry_tol: float = 1e-12
    spd_check_cap: int = 2000
    pou_tol: float = 1e-12
    extension_tol: float = 1e-8
    nullspace_tol: float = 1e-10
    spsd_tol: float = 1e-8
    strict: bool = True
    diff_distributed: bool = False
    audit_cost_model: bool = False


@dataclass
class InvariantCheck:
    """One checked invariant: a measured value against its tolerance."""

    name: str
    value: float
    tol: float
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        s = f"[{mark}] {self.name}: {self.value:.3e} (tol {self.tol:.1e})"
        return s + (f" -- {self.detail}" if self.detail else "")


@dataclass
class VerificationReport:
    """The collected outcome of an invariant suite run."""

    checks: List[InvariantCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[InvariantCheck]:
        """The failing checks."""
        return [c for c in self.checks if not c.ok]

    def extend(self, checks: List[InvariantCheck]) -> "VerificationReport":
        """Append checks; returns self for chaining."""
        self.checks.extend(checks)
        return self

    def summary(self) -> str:
        """Multi-line human-readable report."""
        head = (
            f"verification: {len(self.checks)} checks, "
            f"{len(self.failures)} failed"
        )
        return "\n".join([head] + ["  " + str(c) for c in self.checks])

    def raise_on_failure(self) -> None:
        """Raise :class:`VerificationError` listing any failed checks."""
        if not self.ok:
            raise VerificationError(self.summary())


# ----------------------------------------------------------------------
def check_residual_drift(
    x: np.ndarray,
    a,
    b: np.ndarray,
    residual_norms: List[float],
    config: VerifyConfig,
) -> List[InvariantCheck]:
    """Recompute ``||b - Ax||`` and compare with the recurrence estimate.

    The Givens recurrence (GMRES) and the recursively updated residual
    (CG) both drift away from the true residual in finite precision;
    bounded drift is what makes the reported iteration counts
    trustworthy.  Drift is measured relative to the initial residual
    ``residual_norms[0]``, the quantity the convergence test divides by.
    """
    apply_a = a.matvec if hasattr(a, "matvec") else a
    true = float(np.linalg.norm(b - apply_a(x)))
    beta0 = residual_norms[0] if residual_norms else float(np.linalg.norm(b))
    est = residual_norms[-1] if residual_norms else true
    drift = abs(est - true) / max(beta0, 1e-300)
    return [
        InvariantCheck(
            "residual/recurrence_drift",
            drift,
            config.residual_drift_tol,
            drift <= config.residual_drift_tol,
            f"estimate {est:.3e}, recomputed {true:.3e}, ||r0|| {beta0:.3e}",
        )
    ]


def check_overlap_operator(precond, config: VerifyConfig) -> List[InvariantCheck]:
    """Symmetry and positive definiteness of every ``A_i = R_i A R_i^T``.

    Overlap extraction selects rows/columns of a symmetric matrix, so
    each local matrix is exactly symmetric; any asymmetry means the
    extraction (or a precision cast applied to only one triangle) is
    broken.  SPD-ness is what licenses CG/Cholesky on the subdomain
    solves; it is confirmed by dense Cholesky on subdomains up to
    ``spd_check_cap`` rows.
    """
    inner = unwrap(precond)
    matrices = inner.one_level.matrices
    worst_sym, worst_rank = 0.0, -1
    for rank, a_i in enumerate(matrices):
        d = a_i - a_i.transpose()
        asym = float(np.max(np.abs(d.data))) if d.data.size else 0.0
        scale = float(np.max(np.abs(a_i.data))) if a_i.data.size else 1.0
        rel = asym / max(scale, 1e-300)
        if rel > worst_sym:
            worst_sym, worst_rank = rel, rank
    checks = [
        InvariantCheck(
            "overlap/symmetry",
            worst_sym,
            config.symmetry_tol,
            worst_sym <= config.symmetry_tol,
            f"worst of {len(matrices)} local matrices"
            + (f" (rank {worst_rank})" if worst_rank >= 0 else ""),
        )
    ]

    factored, skipped, failed = 0, 0, []
    for rank, a_i in enumerate(matrices):
        if a_i.n_rows > config.spd_check_cap:
            skipped += 1
            continue
        dense = a_i.todense()
        try:
            np.linalg.cholesky(0.5 * (dense + dense.T))
        except np.linalg.LinAlgError:
            failed.append(rank)
        factored += 1
    checks.append(
        InvariantCheck(
            "overlap/spd",
            float(len(failed)),
            0.0,
            not failed,
            f"{factored} subdomains factored, {skipped} over the "
            f"{config.spd_check_cap}-row cap"
            + (f"; indefinite ranks {failed}" if failed else ""),
        )
    )
    return checks


def check_coarse_basis(
    precond,
    config: VerifyConfig,
    nullspace: Optional[np.ndarray] = None,
) -> List[InvariantCheck]:
    """Partition of unity, Eq. (2), and null-space reproduction of Phi.

    * The interface weights of every GDSW/rGDSW component sum to one at
      every interface node (the partition-of-unity construction).
    * The energy-minimizing extension solves
      ``A_II Phi_I = -A_IGamma Phi_Gamma``, so the interior rows of
      ``A Phi`` vanish -- checked relative to ``max|A| * max|Phi|``.
    * Since the coarse columns are (weights x null-space) products, the
      interface restriction of each Neumann null-space vector lies in
      ``range(Phi_Gamma)``; checked by least squares when a null space
      is supplied (GDSW/rGDSW only -- adaptive spaces have their own
      basis selection).
    """
    inner = unwrap(precond)
    space = inner.space
    if inner.phi is None:
        return [
            InvariantCheck(
                "coarse/partition_of_unity", 0.0, config.pou_tol, True,
                "no coarse level (single subdomain)",
            )
        ]
    pou = float(space.partition_of_unity_error())
    checks = [
        InvariantCheck(
            "coarse/partition_of_unity",
            pou,
            config.pou_tol,
            pou <= config.pou_tol,
            f"{space.n_coarse} coarse functions ({space.variant})",
        )
    ]

    from repro.sparse.blocks import extract_submatrix
    from repro.sparse.spgemm import spgemm

    a = inner.dec.a
    ap = spgemm(a, inner.phi)
    interior = space.interior_dofs
    if interior.size:
        rows = extract_submatrix(
            ap, interior, np.arange(ap.n_cols, dtype=np.int64)
        )
        worst = float(np.max(np.abs(rows.data))) if rows.data.size else 0.0
    else:
        worst = 0.0
    scale = float(np.max(np.abs(a.data))) * max(
        float(np.max(np.abs(inner.phi.data))) if inner.phi.data.size else 1.0,
        1e-300,
    )
    rel = worst / max(scale, 1e-300)
    checks.append(
        InvariantCheck(
            "coarse/harmonic_extension",
            rel,
            config.extension_tol,
            rel <= config.extension_tol,
            f"max interior row of A@Phi {worst:.3e} vs scale {scale:.3e}",
        )
    )

    if nullspace is not None and space.variant in ("gdsw", "rgdsw"):
        z = np.asarray(nullspace, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None]
        ifc = space.interface_dofs
        if space.n_coarse and ifc.size * space.n_coarse <= 2_000_000:
            pg = space.phi_gamma.todense()
            zg = z[ifc]
            coeff, *_ = np.linalg.lstsq(pg, zg, rcond=None)
            resid = pg @ coeff - zg
            rel = float(np.max(np.abs(resid))) / max(
                float(np.max(np.abs(zg))), 1e-300
            )
            checks.append(
                InvariantCheck(
                    "coarse/nullspace_reproduction",
                    rel,
                    config.nullspace_tol,
                    rel <= config.nullspace_tol,
                    f"{z.shape[1]} null-space vectors on "
                    f"{ifc.size} interface dofs",
                )
            )
    return checks


def check_spectral_space(precond, config: VerifyConfig) -> List[InvariantCheck]:
    """SPSD-splitting and eigenvalue-threshold invariants (spectral only).

    * **eigenvalue threshold** -- every kept generalized eigenvalue
      beyond each subdomain's guaranteed first mode satisfies
      ``lambda <= tau``, and no subdomain exceeds
      ``max_vectors_per_subdomain`` (the selection contract of
      :func:`repro.dd.algebraic.subdomain_spectral_modes`);
    * **SPSD splitting** -- each subdomain's local splitting
      ``tilde A_i`` (recomputed from the assembled matrix) has
      ``lambda_min >= -spsd_tol * max|tilde A_i|``, i.e. the algebraic
      Neumann correction produced a positive semi-definite local
      operator.  Subdomains whose patch exceeds ``spd_check_cap`` dofs
      skip the dense eigenvalue check (cost control).

    Returns no checks for non-spectral preconditioners.
    """
    inner = unwrap(precond)
    space = inner.space
    if space.variant != "spectral" or space.eigenvalues is None:
        return []
    tau = float(space.tau)
    max_vec = int(space.max_vectors_per_subdomain)

    worst_excess = 0.0
    worst_count = 0
    for evals in space.eigenvalues:
        if evals.size > max_vec:
            worst_count = max(worst_count, int(evals.size))
        # the first mode is the always-kept floor; the rest must clear tau
        if evals.size > 1:
            worst_excess = max(worst_excess, float(np.max(evals[1:]) - tau))
    checks = [
        InvariantCheck(
            "spectral/eigenvalue_threshold",
            max(worst_excess, 0.0),
            0.0,
            worst_excess <= 0.0 and worst_count <= max_vec,
            f"tau {tau:g}, cap {max_vec}, "
            f"{sum(e.size for e in space.eigenvalues)} modes over "
            f"{len(space.eigenvalues)} subdomains"
            + (f"; a subdomain kept {worst_count}" if worst_count else ""),
        )
    ]

    from repro.dd.algebraic import local_spsd_splitting
    from repro.dd.overlap import overlapping_subdomains

    dec = inner.dec
    analysis = inner.analysis
    node_sets = getattr(inner.one_level, "node_sets", None)
    if node_sets is None:
        node_sets = overlapping_subdomains(dec, 1)
    worst_neg, checked, skipped = 0.0, 0, 0
    for rank in range(dec.n_subdomains):
        gamma_nodes = np.asarray(
            sorted(
                node
                for node, owners in analysis.node_adjacency.items()
                if rank in owners
            ),
            dtype=np.int64,
        )
        if gamma_nodes.size == 0:
            continue
        patch_nodes = np.union1d(node_sets[rank], gamma_nodes)
        if patch_nodes.size * dec.dofs_per_node > config.spd_check_cap:
            skipped += 1
            continue
        a_tilde, _ = local_spsd_splitting(dec, gamma_nodes, patch_nodes)
        evs = np.linalg.eigvalsh(a_tilde)
        scale = max(float(np.max(np.abs(a_tilde))), 1e-300)
        worst_neg = max(worst_neg, float(-evs[0]) / scale)
        checked += 1
    checks.append(
        InvariantCheck(
            "spectral/spsd_splitting",
            worst_neg,
            config.spsd_tol,
            worst_neg <= config.spsd_tol,
            f"{checked} subdomain splittings eig-checked, {skipped} over "
            f"the {config.spd_check_cap}-dof cap",
        )
    )
    return checks


# ----------------------------------------------------------------------
def verify_run(
    a,
    b: np.ndarray,
    x: np.ndarray,
    residual_norms: List[float],
    precond,
    config: Optional[VerifyConfig] = None,
    nullspace: Optional[np.ndarray] = None,
    observer=None,
) -> VerificationReport:
    """Run the full invariant suite on one completed solve.

    ``a``/``b`` are the operator and right-hand side the Krylov method
    iterated on (the *working-precision* system); the preconditioner
    invariants are checked against the matrix the preconditioner was
    built from (its own ``dec.a``, which differs under emulated half
    precision).  ``observer`` optionally supplies the per-cycle Arnoldi
    records of a :class:`~repro.verify.observers.GmresInvariantObserver`.
    """
    config = config or VerifyConfig()
    report = VerificationReport()
    report.extend(check_residual_drift(x, a, b, residual_norms, config))
    if observer is not None:
        beta0 = residual_norms[0] if residual_norms else None
        report.extend(observer.checks(config, beta0=beta0))
    report.extend(check_overlap_operator(precond, config))
    report.extend(check_coarse_basis(precond, config, nullspace=nullspace))
    report.extend(check_spectral_space(precond, config))
    if config.diff_distributed:
        from repro.verify.diff import diff_executions

        report.extend(diff_executions(precond).as_checks())
    if config.audit_cost_model:
        from repro.verify.cost_audit import audit_cost_model

        report.extend(audit_cost_model(precond).as_checks())
    return report
