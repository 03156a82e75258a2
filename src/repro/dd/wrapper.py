"""The shared base of every preconditioner wrapper.

The cost model (:mod:`repro.runtime.timings`) prices an operator through
five names -- ``rank_apply_profile``, ``rank_setup_profile``,
``halo_doubles``, ``dec`` and ``n_coarse`` -- and the Krylov solvers call
``apply``.  A wrapper (half precision, one-level degradation, fault
guard, rank-loss communication replay, bounded staleness) changes one or
two of those and passes the rest through; :class:`OperatorWrapper` is
that pass-through, written once, so a wrapper overrides only what it
changes.  :func:`unwrap` peels any nesting of wrappers down to the
:class:`~repro.dd.two_level.GDSWPreconditioner` underneath.

This module imports nothing: every layer that defines a wrapper
(``dd``, ``resilience``, ``ft``, ``serve``, ``elastic``) depends on it.
"""

from __future__ import annotations

__all__ = ["OperatorWrapper", "unwrap"]


class OperatorWrapper:
    """Delegates ``apply`` and the cost-model protocol to ``inner``.

    ``protective`` marks the layers a protection policy adds around the
    session's operator (fault guard, rank-loss replay): they watch the
    solve but are not part of the preconditioner, so verification and
    the reuse state look through them (``unwrap(op, protection_only=True)``).
    """

    protective = False

    def __init__(self, inner) -> None:
        self.inner = inner

    def apply(self, v):
        """Apply the wrapped operator (a vector or an ``(n, k)`` block)."""
        return self.inner.apply(v)

    def rank_apply_profile(self, rank: int):
        """Kernels of one application on ``rank``."""
        return self.inner.rank_apply_profile(rank)

    def rank_setup_profile(self, rank: int, refactorization: bool = False):
        """Setup kernels of ``rank``."""
        return self.inner.rank_setup_profile(rank, refactorization)

    def halo_doubles(self, rank: int) -> int:
        """Halo payload (float64 count) of one apply on ``rank``."""
        return self.inner.halo_doubles(rank)

    @property
    def dec(self):
        """Decomposition of the wrapped operator."""
        return self.inner.dec

    @property
    def n_coarse(self) -> int:
        """Coarse dimension of the wrapped operator."""
        return self.inner.n_coarse


def unwrap(operator, protection_only: bool = False):
    """The bare preconditioner under any nesting of wrappers.

    ``protection_only=True`` stops at the first non-protective layer:
    what remains is the preconditioner proper (possibly still precision-
    wrapped) -- the object verification checks and ``refactor`` updates.
    """
    while isinstance(operator, OperatorWrapper) and (
        operator.protective or not protection_only
    ):
        operator = operator.inner
    return operator
