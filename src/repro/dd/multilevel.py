"""Multi-level (three-level) GDSW.

Section III of the paper: "multi-level approaches have been proposed to
recursively apply GDSW on the coarse problem" [Heinlein, Rheinbach,
Roever 2021] -- the cure when the coarse problem itself becomes the
scalability bottleneck.  This module provides
:class:`MultilevelCoarseSolver`: instead of factoring ``A0`` directly,
the coarse problem is decomposed *algebraically* (recursive bisection of
its graph), a second-level GDSW preconditioner is built for it, and each
coarse solve runs a few inner preconditioned GMRES iterations.  The
outer solver must tolerate an inexact coarse solve, which our
right-preconditioned GMRES (storing the preconditioned directions, i.e.
flexible GMRES) does.

The null space of the coarse operator is the original null space pushed
through the basis: ``A0 (Phi^+ Z) ~ Phi^T A Z ~ 0``; for GDSW bases with
partition of unity, the constant combination of each component's
null-space columns reproduces ``Z`` exactly, so the constant vector per
null-space direction is used.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dd.decomposition import Decomposition
from repro.dd.local_solvers import LocalSolverSpec
from repro.machine.kernels import KernelProfile
from repro.sparse.csr import CsrMatrix

__all__ = ["MultilevelCoarseSolver"]


class MultilevelCoarseSolver:
    """Inexact coarse solver: a second GDSW level plus inner GMRES.

    Parameters
    ----------
    a0:
        The (level-1) coarse matrix ``Phi^T A Phi``.
    n_parts:
        Subdomain count of the second-level decomposition.
    n_null:
        Number of null-space directions of the original problem; the
        coarse null space is spanned by the corresponding constant
        combinations of coarse dofs (``n_null`` vectors).
    null_index:
        Optional ``(n0,)`` array assigning every coarse dof to its
        null-space direction (defaults to ``arange(n0) % n_null``, the
        layout produced by :func:`repro.dd.coarse_space.build_coarse_space`).
    inner_iterations:
        Inner GMRES iterations per coarse solve (a fixed, small count --
        the solve is deliberately inexact).
    local_spec:
        Local solver of the second level.

    The object exposes the :class:`~repro.dd.local_solvers.FactoredLocal`
    interface (``apply`` + phase profiles) so it can stand in for the
    direct coarse solver inside :class:`GDSWPreconditioner`.
    """

    symbolic_reusable = True

    def __init__(
        self,
        a0: CsrMatrix,
        n_parts: int = 4,
        n_null: int = 1,
        null_index: Optional[np.ndarray] = None,
        inner_iterations: int = 5,
        local_spec: Optional[LocalSolverSpec] = None,
    ) -> None:
        if a0.n_rows != a0.n_cols:
            raise ValueError("square coarse matrix required")
        self.a0 = a0
        self.inner_iterations = int(inner_iterations)
        n0 = a0.n_rows
        n_parts = max(1, min(n_parts, n0))
        local_spec = local_spec or LocalSolverSpec(kind="tacho", ordering="nd")

        self.dec = Decomposition.algebraic(a0, n_parts, dofs_per_node=1)
        if null_index is None:
            null_index = np.arange(n0, dtype=np.int64) % max(n_null, 1)
        z0 = np.zeros((n0, max(n_null, 1)))
        z0[np.arange(n0), np.asarray(null_index, dtype=np.int64)] = 1.0

        from repro.dd.two_level import GDSWPreconditioner

        self.precond = GDSWPreconditioner(
            self.dec, z0, local_spec=local_spec, overlap=1, variant="rgdsw", dim=3
        )

        # phase profiles: aggregate the second level's per-rank work
        self.symbolic_profile = KernelProfile()
        self.numeric_profile = KernelProfile()
        self.setup_profile = KernelProfile()
        for r in range(self.dec.n_subdomains):
            self.numeric_profile.extend(
                self.precond.rank_setup_profile(r, refactorization=True)
            )
        self.solve_profile = KernelProfile()
        for _ in range(self.inner_iterations):
            for r in range(self.dec.n_subdomains):
                self.solve_profile.extend(self.precond.rank_apply_profile(r))

    @property
    def exact(self) -> bool:
        """Multi-level coarse solves are inexact by construction."""
        return False

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Approximately solve ``A0 x = v`` with inner GDSW-GMRES.

        The inner Krylov solve is per right-hand side: an ``(n0, k)``
        block is solved column by column.
        """
        from repro.krylov import gmres

        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 2:
            return np.stack([self.apply(v[:, j]) for j in range(v.shape[1])], axis=1)
        res = gmres(
            self.a0,
            v,
            preconditioner=self.precond,
            rtol=1e-10,  # iteration cap below is the real control
            restart=max(self.inner_iterations, 1),
            maxiter=self.inner_iterations,
        )
        return res.x
