"""Scenario matrix for the algebraic coarse space: hard operators, .mtx in.

Four operator families the plain GDSW construction was never designed
for (the comparison set of the two-level-ILU line, arXiv 2303.08881),
each assembled as a bare sparse matrix, written to a MatrixMarket file,
and ingested back through :meth:`SolverSession.from_matrix_market` --
so the bench exercises exactly the arbitrary-matrix path a tenant would
use:

* ``convection_diffusion`` -- nonsymmetric upwinded convection-diffusion
  (GMRES territory; the coarse eigenproblem works on the symmetric
  part);
* ``anisotropic_laplace`` -- ``-u_xx - eps u_yy`` with ``eps = 1e-3``:
  near-decoupled vertical lines that a one-vector-per-component GDSW
  space cannot represent;
* ``high_contrast`` -- ``-div(c grad u)`` with seeded stripes of
  ``c = 1e6`` against ``c = 1``: the channel modes GenEO-style
  eigenproblems were invented for;
* ``nearly_incompressible_elasticity`` -- ``nu = 0.499`` 3D elasticity
  ingested *without* coordinates, so the GDSW arm runs on the algebraic
  translations-only null space.

:func:`run_scenarios` solves every scenario with plain GDSW
(``variant="gdsw"``) and with the fully algebraic spectral space
(``coarse_space="spectral"``), gates the comparison (spectral must
strictly beat GDSW iterations on the high-contrast and anisotropic
rows; every arm must converge), and writes the ``BENCH_scenarios.json``
report CI commits.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sparse.csr import CsrMatrix

__all__ = [
    "Scenario",
    "anisotropic_laplace",
    "convection_diffusion",
    "generate_scenarios",
    "high_contrast",
    "nearly_incompressible_elasticity",
    "run_scenarios",
    "summary",
]


@dataclass
class Scenario:
    """One bench row: an assembled operator plus its solve setup."""

    name: str
    a: CsrMatrix
    b: np.ndarray
    dofs_per_node: int = 1
    dim: int = 2
    partition: Tuple[int, int, int] = (2, 2, 1)
    symmetric: bool = True
    #: scenario-specific spectral threshold (None -> the harness default)
    tau: Optional[float] = None
    notes: str = ""
    gated: bool = field(default=False)

    @property
    def n(self) -> int:
        return self.a.n_rows


def _five_point(
    n: int,
    diag: np.ndarray,
    west: np.ndarray,
    east: np.ndarray,
    south: np.ndarray,
    north: np.ndarray,
) -> CsrMatrix:
    """Assemble a 5-point stencil on the n x n interior grid.

    The coefficient arrays are per-node (row-major, ``idx = j*n + i``);
    off-diagonal entries are dropped at the Dirichlet boundary.
    """
    idx = np.arange(n * n, dtype=np.int64)
    i, j = idx % n, idx // n
    rows = [idx]
    cols = [idx]
    vals = [diag]
    for mask, shift, coeff in (
        (i > 0, -1, west),
        (i < n - 1, +1, east),
        (j > 0, -n, south),
        (j < n - 1, +n, north),
    ):
        rows.append(idx[mask])
        cols.append(idx[mask] + shift)
        vals.append(coeff[mask])
    return CsrMatrix.from_coo(
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
        (n * n, n * n),
    )


def convection_diffusion(
    n: int = 20, velocity: Tuple[float, float] = (40.0, 20.0)
) -> CsrMatrix:
    """Nonsymmetric upwinded convection-diffusion on the unit square.

    ``-Delta u + v . grad u`` with first-order upwinding (stable for
    any velocity): the convective flux is charged to the upstream
    neighbor, so the matrix stays an M-matrix but loses symmetry.
    """
    h = 1.0 / (n + 1)
    vx, vy = (float(v) for v in velocity)
    m = n * n
    diag = np.full(m, 4.0 + h * vx + h * vy)
    west = np.full(m, -1.0 - h * vx)
    south = np.full(m, -1.0 - h * vy)
    east = np.full(m, -1.0)
    north = np.full(m, -1.0)
    return _five_point(n, diag, west, east, south, north)


def anisotropic_laplace(n: int = 24, epsilon: float = 1e-3) -> CsrMatrix:
    """``-u_xx - eps u_yy``: strongly anisotropic diffusion.

    With ``eps = 1e-3`` the rows are nearly decoupled vertical lines;
    the low-energy interface modes are per-line, far more than the one
    constant per component plain GDSW offers.
    """
    m = n * n
    diag = np.full(m, 2.0 + 2.0 * epsilon)
    ew = np.full(m, -1.0)
    ns = np.full(m, -epsilon)
    return _five_point(n, diag, ew.copy(), ew, ns.copy(), ns)


def high_contrast(
    n: int = 24, contrast: float = 1e6, seed: int = 7, n_stripes: int = 3
) -> CsrMatrix:
    """``-div(c grad u)`` with seeded high-coefficient stripes.

    A per-node coefficient field of ``n_stripes`` horizontal stripes at
    ``c = contrast`` in a ``c = 1`` background (stripe rows drawn from
    ``seed``); edge conductances are the harmonic means of the adjacent
    node coefficients, so the jumps land *inside* subdomains and across
    interfaces -- the channel configuration where plain coarse spaces
    lose robustness.
    """
    rng = np.random.default_rng(seed)
    c = np.ones((n, n))  # [j, i]
    stripe_rows = rng.choice(np.arange(1, n - 1), size=n_stripes, replace=False)
    for j in stripe_rows:
        c[j, :] = contrast
    cn = c.ravel()

    idx = np.arange(n * n, dtype=np.int64)
    i, j = idx % n, idx // n

    def harm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 2.0 * a * b / (a + b)

    # edge conductances toward each neighbor (0 outside the domain;
    # Dirichlet boundary edges keep the node's own coefficient)
    west = np.where(i > 0, harm(cn, np.roll(cn, 1)), cn)
    east = np.where(i < n - 1, harm(cn, np.roll(cn, -1)), cn)
    south = np.where(j > 0, harm(cn, np.roll(cn, n)), cn)
    north = np.where(j < n - 1, harm(cn, np.roll(cn, -n)), cn)
    diag = west + east + south + north
    return _five_point(n, diag, -west, -east, -south, -north)


def nearly_incompressible_elasticity(nex: int = 4, nu: float = 0.499):
    """3D elasticity at ``nu = 0.499`` (near the incompressible limit).

    Returns ``(matrix, rhs)``; the scenario deliberately drops the
    coordinates so the ingestion path is purely algebraic and the GDSW
    arm runs on translations only.
    """
    from repro.fem import elasticity_3d

    p = elasticity_3d(nex, poisson_ratio=nu)
    return p.a, p.b


def generate_scenarios(seed: int = 7) -> List[Scenario]:
    """The committed scenario matrix (sizes chosen for CI wall clock)."""
    ela_a, ela_b = nearly_incompressible_elasticity(4, 0.499)
    return [
        Scenario(
            name="convection_diffusion",
            a=convection_diffusion(20),
            b=np.ones(400),
            symmetric=False,
            notes="upwind, v=(40,20); nonsymmetric -> GMRES",
        ),
        Scenario(
            name="anisotropic_laplace",
            a=anisotropic_laplace(24, 1e-3),
            b=np.ones(576),
            gated=True,
            notes="-u_xx - 1e-3 u_yy",
        ),
        Scenario(
            name="high_contrast",
            a=high_contrast(24, 1e6, seed=seed),
            b=np.ones(576),
            gated=True,
            notes=f"1e6 stripes, seed {seed}",
        ),
        Scenario(
            name="nearly_incompressible_elasticity",
            a=ela_a,
            b=ela_b,
            dofs_per_node=3,
            dim=3,
            notes="nu=0.499, no coordinates (translations-only GDSW arm)",
        ),
    ]


def _solve_arm(mtx_path, scenario: Scenario, config, maxiter: int) -> Dict:
    from repro.api import KrylovConfig, SolverSession

    session = SolverSession.from_matrix_market(
        mtx_path,
        b=scenario.b,
        dofs_per_node=scenario.dofs_per_node,
        partition=scenario.partition,
        config=config,
        krylov=KrylovConfig(rtol=1e-7, restart=30, maxiter=maxiter),
    )
    res = session.solve()
    return {
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "n_coarse": int(res.n_coarse),
        "final_relres": float(res.final_relres),
    }


def run_scenarios(
    seed: int = 7,
    tau: float = 0.12,
    max_vectors: int = 8,
    maxiter: int = 600,
) -> Dict:
    """Run every scenario with plain GDSW and the spectral coarse space.

    Both arms ingest the same on-disk ``.mtx`` file.  Gates:

    * every arm of every scenario converges;
    * on the gated rows (``high_contrast``, ``anisotropic_laplace``)
      the spectral arm's iteration count is *strictly* below plain
      GDSW's.

    Returns the report dict (``violations`` non-empty on gate failure).
    """
    from repro.api import SchwarzConfig
    from repro.dd.local_solvers import LocalSolverSpec
    from repro.io import write_matrix_market

    rows = []
    violations: List[str] = []
    with tempfile.TemporaryDirectory() as td:
        for sc in generate_scenarios(seed):
            mtx = f"{td}/{sc.name}.mtx"
            write_matrix_market(mtx, sc.a)
            sc_tau = sc.tau if sc.tau is not None else tau
            # the Cholesky-based solver defaults assume symmetry; the
            # nonsymmetric rows run LU at every level
            solvers = {}
            if not sc.symmetric:
                lu = LocalSolverSpec(kind="superlu")
                solvers = {"local": lu, "coarse": lu, "extension": lu}
            gdsw = _solve_arm(
                mtx, sc,
                SchwarzConfig(variant="gdsw", dim=sc.dim, **solvers),
                maxiter,
            )
            spectral = _solve_arm(
                mtx, sc,
                SchwarzConfig(
                    coarse_space="spectral",
                    dim=sc.dim,
                    tau=sc_tau,
                    max_vectors_per_subdomain=max_vectors,
                    **solvers,
                ),
                maxiter,
            )
            row = {
                "scenario": sc.name,
                "n": sc.n,
                "nnz": int(sc.a.nnz),
                "dofs_per_node": sc.dofs_per_node,
                "symmetric": sc.symmetric,
                "tau": sc_tau,
                "gated": sc.gated,
                "notes": sc.notes,
                "gdsw": gdsw,
                "spectral": spectral,
                "spectral_wins": spectral["iterations"] < gdsw["iterations"],
            }
            rows.append(row)
            for arm_name, arm in (("gdsw", gdsw), ("spectral", spectral)):
                if not arm["converged"]:
                    violations.append(
                        f"{sc.name}/{arm_name}: no convergence in "
                        f"{arm['iterations']} iterations "
                        f"(relres {arm['final_relres']:.3e})"
                    )
            if sc.gated and not row["spectral_wins"]:
                violations.append(
                    f"{sc.name}: spectral ({spectral['iterations']} its) "
                    f"does not strictly beat gdsw ({gdsw['iterations']} its)"
                )
    return {
        "bench": "scenarios",
        "seed": int(seed),
        "tau_default": float(tau),
        "max_vectors_per_subdomain": int(max_vectors),
        "rows": rows,
        "violations": violations,
    }


def summary(doc: Dict) -> List[str]:
    """One GDSW-vs-spectral line per scenario."""
    return [
        f"{row['scenario']:34s}: gdsw "
        f"{row['gdsw']['iterations']:4d} its (nc "
        f"{row['gdsw']['n_coarse']}) vs spectral "
        f"{row['spectral']['iterations']:4d} its (nc "
        f"{row['spectral']['n_coarse']})"
        f"{' [gated]' if row['gated'] else ''}"
        for row in doc["rows"]
    ]
