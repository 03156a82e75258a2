"""FastSpTRSV: Jacobi-iteration approximate triangular solve.

[Chow & Patel 2015] / Trilinos FastILU: instead of substitution, solve
``T x = b`` approximately with the stationary iteration

``x_{k+1} = x_k + D^{-1} (b - T x_k)``,

starting from ``x_0 = D^{-1} b``.  Each sweep is one SpMV with
full-vector parallelism and converges in a handful of sweeps for
diagonally-dominant-ish factors; the iteration matrix ``I - D^{-1} T``
is nilpotent (strictly triangular after scaling), so after ``n`` sweeps
the result is exact -- in practice the paper's default is 5 sweeps.

The approximation raises the Krylov iteration count (Table IV(b)) but
each application is launch-light and massively parallel on the GPU,
which is why the Fast variants win the solve-time columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.machine.kernels import KernelProfile
from repro.sparse.csr import CsrMatrix

__all__ = ["JacobiTriangular"]


class JacobiTriangular:
    """Approximate triangular solver with a fixed number of Jacobi sweeps.

    Parameters
    ----------
    t:
        Square triangular CSR matrix with explicit diagonal (unless
        ``unit_diagonal``).
    sweeps:
        Number of Jacobi iterations (the paper defaults to 5 for the
        triangular solves and 3 for the factorization sweeps).
    unit_diagonal:
        Implicit unit diagonal.
    """

    def __init__(
        self,
        t: CsrMatrix,
        sweeps: int = 5,
        unit_diagonal: bool = False,
        damping: float = 0.8,
    ) -> None:
        if t.n_rows != t.n_cols:
            raise ValueError("square matrix required")
        if sweeps < 0:
            raise ValueError("sweeps must be non-negative")
        if not (0.0 < damping <= 1.0):
            raise ValueError("damping must be in (0, 1]")
        self.t = t
        self.sweeps = int(sweeps)
        self.unit_diagonal = unit_diagonal
        # the undamped iteration matrix I - D^{-1}T is nilpotent but
        # highly non-normal for deep factors: the transient can grow
        # before the guaranteed n-sweep convergence.  Damping trades the
        # finite-termination property for a tame transient (this is the
        # FastSpTRSV damping-factor parameter of the paper's Table I).
        self.damping = float(damping)
        n = t.n_rows
        if unit_diagonal:
            self._dinv = np.ones(n, dtype=np.float64)
        else:
            diag = t.diagonal()
            if np.any(diag == 0):
                raise ZeroDivisionError("zero on the diagonal")
            self._dinv = 1.0 / diag

    @classmethod
    def block_diag(cls, parts: Sequence["JacobiTriangular"]) -> "JacobiTriangular":
        """``blkdiag(parts)`` swept as one matrix (same sweeps and damping).

        A sweep is row-wise, so each part's rows see exactly the
        arithmetic of the part's own :meth:`solve`.
        """
        keys = {p.merge_key for p in parts}
        if len(keys) != 1:
            raise ValueError(f"cannot merge Jacobi solvers of kinds {sorted(keys)}")
        offsets = np.concatenate([[0], np.cumsum([p.t.n_rows for p in parts])])
        nnz = np.concatenate([[0], np.cumsum([p.t.nnz for p in parts])])
        n = int(offsets[-1])
        t = CsrMatrix(
            np.concatenate(
                [[0]] + [p.t.indptr[1:] + off for p, off in zip(parts, nnz)]
            ),
            np.concatenate([p.t.indices + off for p, off in zip(parts, offsets)]),
            np.concatenate([p.t.data for p in parts]),
            (n, n),
        )
        self = cls.__new__(cls)
        self.t = t
        self.sweeps = parts[0].sweeps
        self.unit_diagonal = parts[0].unit_diagonal
        self.damping = parts[0].damping
        self._dinv = np.concatenate([p._dinv for p in parts])
        return self

    @property
    def merge_key(self) -> tuple:
        """What must agree for two solvers to share a :meth:`block_diag`."""
        return ("jacobi", self.sweeps, self.unit_diagonal, self.damping)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Approximately solve ``T x = b`` with the configured sweeps.

        Column ``j`` of a 2-D solve equals the 1-D solve of column ``j``
        bit for bit (the SpMM reduces each column like the SpMV).
        """
        b = np.asarray(b, dtype=np.float64)
        dinv = self._dinv if b.ndim == 1 else self._dinv[:, None]
        w = self.damping
        x = w * dinv * b
        for _ in range(self.sweeps):
            tx = self.t.matmat(x) if x.ndim == 2 else self.t.matvec(x)
            if self.unit_diagonal:
                # with unit_diagonal, ``t`` stores only the strict part
                tx = tx + x
            x = x + w * dinv * (b - tx)
        return x

    def kernel_profile(self) -> KernelProfile:
        """One SpMV-shaped kernel per sweep (plus the initial scaling)."""
        prof = KernelProfile()
        n = self.t.n_rows
        prof.add("sptrsv.jacobi_scale", flops=float(n), bytes=24.0 * n, parallelism=float(n))
        for _ in range(self.sweeps):
            prof.add(
                "sptrsv.jacobi_sweep",
                flops=2.0 * self.t.nnz + 2.0 * n,
                bytes=self.t.nnz * 16.0 + n * 32.0,
                parallelism=float(n),
            )
        return prof
