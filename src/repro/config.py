"""Validated configuration objects of the solver facade.

:class:`SchwarzConfig` (the preconditioner; defined next to the
preconditioner it configures, :mod:`repro.dd.two_level`) and
:class:`KrylovConfig` (the iteration) replace keyword soup: every option
is validated at *construction* with an error that names the field or
lists the valid values, and each config renders a one-line
``describe()`` for trace annotations and tables.  A serving shard keys
on ``SchwarzConfig.key()`` and the ``KrylovConfig`` itself, never on
the display strings.  :mod:`repro.api` re-exports both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dd.two_level import (
    COARSE_SPACES,
    COARSE_VARIANTS,
    PRECISIONS,
    SchwarzConfig,
    _check,
)
from repro.krylov.gmres import GMRES_VARIANTS

__all__ = [
    "SchwarzConfig",
    "KrylovConfig",
    "COARSE_VARIANTS",
    "COARSE_SPACES",
    "PRECISIONS",
]


@dataclass(frozen=True)
class KrylovConfig:
    """GMRES options (paper defaults: single-reduce GMRES(30), 1e-7).

    Attributes
    ----------
    variant:
        GMRES orthogonalization: ``"mgs"``, ``"cgs"`` or
        ``"single_reduce"``.
    rtol, restart, maxiter:
        Convergence tolerance, GMRES cycle length, iteration cap.
    """

    variant: str = "single_reduce"
    rtol: float = 1e-7
    restart: int = 30
    maxiter: int = 1000

    def __post_init__(self) -> None:
        _check(self.variant, GMRES_VARIANTS, "GMRES variant")
        if self.rtol <= 0:
            raise ValueError(f"rtol must be positive, got {self.rtol}")
        if self.restart < 1:
            raise ValueError(f"restart must be >= 1, got {self.restart}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")

    def describe(self) -> str:
        """One-line summary, mirroring :meth:`SchwarzConfig.describe`
        (display only)."""
        return (
            f"gmres[{self.variant}] rtol={self.rtol:g} "
            f"restart={self.restart} maxiter={self.maxiter}"
        )
