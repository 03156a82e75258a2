"""Three-phase direct-solver interface and factory.

Every Trilinos linear solver separates (a) symbolic factorization, (b)
numeric factorization, and (c) solve (Section V-A.1 of the paper); the
split matters because symbolic analysis is hard to parallelize (done on
CPU, reused across refactorizations when the pattern allows) while the
numeric and solve phases are the GPU targets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.machine.kernels import KernelProfile
from repro.obs import get_tracer
from repro.sparse.csr import CsrMatrix
from repro.tri.factored import FactoredSolve

__all__ = ["DirectSolver", "direct_solver"]


class DirectSolver:
    """Abstract three-phase sparse direct solver.

    Usage::

        solver = direct_solver("tacho", ordering="nd")
        solver.symbolic(a)   # pattern-only analysis (CPU)
        solver.numeric(a)    # numerical factorization
        x = solver.solve(b)  # triangular solves

    Subclasses set the phase profiles (``symbolic_profile``,
    ``numeric_profile``, ``solve_profile``) and
    ``symbolic_reusable`` -- True when a refactorization with the same
    pattern can skip both the symbolic phase *and* any solver setup
    derived from the factor structure (Tacho yes, SuperLU no).  The
    numeric phase also sets ``stages``, the
    :class:`~repro.tri.factored.FactoredSolve` description of the solve
    (permutations and the two triangular factors) that :meth:`solve`
    executes and that the Schwarz layer merges across subdomains.  The
    symbolic phase sets ``symbolic_record``: the immutable result of the
    analysis, obtained through
    :func:`repro.reuse.symbolic.shared_symbolic` and therefore the same
    object in every solver that analysed the same pattern with the same
    options.
    """

    #: can the symbolic phase be reused across numeric refactorizations?
    symbolic_reusable: bool = True

    def __init__(self) -> None:
        self.symbolic_profile: KernelProfile = KernelProfile()
        self.numeric_profile: KernelProfile = KernelProfile()
        self.solve_profile: KernelProfile = KernelProfile()
        self.stages: Optional[FactoredSolve] = None
        self.symbolic_record = None
        self._symbolic_done = False
        self._numeric_done = False

    # -- phases --------------------------------------------------------
    def symbolic(self, a: CsrMatrix) -> "DirectSolver":
        """Pattern-only analysis; must precede :meth:`numeric`."""
        raise NotImplementedError

    def numeric(self, a: CsrMatrix) -> "DirectSolver":
        """Numerical factorization of ``a`` (same pattern as symbolic)."""
        raise NotImplementedError

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (1-D or 2-D ``b``) with the stored factors."""
        self._require("solve")
        return self.stages.apply(b)

    # -- helpers -------------------------------------------------------
    def factorize(self, a: CsrMatrix) -> "DirectSolver":
        """Convenience: symbolic followed by numeric (traced per phase)."""
        tr = get_tracer()
        with tr.span("factor/symbolic") as sp:
            self.symbolic(a)
            sp.annotate(solver=type(self).__name__)
            sp.add_profile(self.symbolic_profile)
        with tr.span("factor/numeric") as sp:
            self.numeric(a)
            sp.add_profile(self.numeric_profile)
        return self

    def refactorize(self, a: CsrMatrix) -> "DirectSolver":
        """Numeric-only refactorization for a same-pattern matrix.

        When the symbolic phase has run and ``symbolic_reusable`` holds,
        only the numeric phase is re-executed (the paper's phase (b));
        the numeric guard raises
        :class:`~repro.reuse.fingerprint.PatternChangedError` when the
        pattern drifted.  Otherwise falls back to a full
        :meth:`factorize` -- SuperLU always takes this branch because
        partial pivoting couples its ordering to the values.
        """
        if not self._symbolic_done or not self.symbolic_reusable:
            return self.factorize(a)
        tr = get_tracer()
        with tr.span("factor/numeric") as sp:
            sp.annotate(solver=type(self).__name__, reused_symbolic=True)
            self.numeric(a)
            sp.add_profile(self.numeric_profile)
        return self

    def _require(self, phase: str) -> None:
        if phase == "numeric" and not self._symbolic_done:
            raise RuntimeError("call symbolic() before numeric()")
        if phase == "solve" and not self._numeric_done:
            raise RuntimeError("call numeric() before solve()")


def direct_solver(name: str, **options) -> DirectSolver:
    """Create a direct solver by paper name.

    ``"superlu"`` maps to the Gilbert--Peierls LU with partial pivoting;
    ``"tacho"`` to the multifrontal supernodal Cholesky.
    """
    from repro.direct.gp_lu import GilbertPeierlsLU
    from repro.direct.multifrontal import MultifrontalCholesky

    name = name.lower()
    if name in ("superlu", "gp", "gilbert-peierls", "lu"):
        return GilbertPeierlsLU(**options)
    if name in ("tacho", "multifrontal", "cholesky"):
        return MultifrontalCholesky(**options)
    raise ValueError(f"unknown direct solver {name!r}; use 'superlu' or 'tacho'")
