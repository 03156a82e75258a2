"""A factored solve, described rather than hand-written.

Every solver in the package that owns triangular factors applies them
the same way: permute (and maybe scale) the right-hand side, solve with
the lower factor, maybe divide by a diagonal, solve with the upper
factor, scale and permute back.  :class:`FactoredSolve` holds that
description; one generic :meth:`~FactoredSolve.apply` executes it for a
direct solver's ``solve``, a subdomain's
:meth:`~repro.dd.local_solvers.FactoredLocal.apply` and the coarse
solve alike, and :meth:`~FactoredSolve.block_diag` turns many
same-kind descriptions into the description of their block-diagonal
system -- the merged local solve of
:class:`~repro.dd.schwarz.OneLevelSchwarz`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["FactoredSolve"]


@dataclass(frozen=True, eq=False)
class FactoredSolve:
    """``x = P_out S_out U^{-1} D^{-1} L^{-1} S_in P_in v``.

    Attributes
    ----------
    perm_in:
        Gather index of the input: the lower solve sees ``v[perm_in]``.
    lower, upper:
        ``(solver, method name)`` of the two triangular stages, e.g.
        ``(snt, "solve_forward")`` or ``(lsol, "solve")``.  The solver
        classes provide ``merge_key`` and ``block_diag``.
    perm_out:
        Gather index of the output: ``x = z[perm_out]``.
    diag:
        Divisor between the two solves (the ``D`` of an LDL^T), or None.
    scale_in, scale_out:
        Multipliers after the input gather / before the output gather
        (FastILU's symmetric row scaling), or None.
    """

    perm_in: np.ndarray
    lower: Tuple[object, str]
    upper: Tuple[object, str]
    perm_out: np.ndarray
    diag: Optional[np.ndarray] = None
    scale_in: Optional[np.ndarray] = None
    scale_out: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        """Dimension of the system."""
        return int(self.perm_in.size)

    @property
    def signature(self) -> tuple:
        """What must agree for two solves to share a :meth:`block_diag`."""
        return (
            self.lower[1],
            self.lower[0].merge_key,
            self.upper[1],
            self.upper[0].merge_key,
            self.diag is not None,
            self.scale_in is not None,
            self.scale_out is not None,
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Run the stages on ``v`` (1-D, or 2-D with one system per column).

        Column ``j`` of a 2-D result equals the 1-D result of column
        ``j`` bit for bit (every stage keeps that contract).
        """
        v = np.asarray(v)

        def rows(d: np.ndarray) -> np.ndarray:
            return d if v.ndim == 1 else d[:, None]

        x = v[self.perm_in]
        if self.scale_in is not None:
            x = rows(self.scale_in) * x
        x = getattr(*self.lower)(x)
        if self.diag is not None:
            x = x / rows(self.diag)
        x = getattr(*self.upper)(x)
        if self.scale_out is not None:
            x = rows(self.scale_out) * x
        return np.asarray(x[self.perm_out], dtype=np.float64)

    @classmethod
    def block_diag(cls, parts: Sequence["FactoredSolve"]) -> "FactoredSolve":
        """The solve of ``blkdiag(parts)`` (all of one :attr:`signature`).

        Index stages are offset and concatenated; the triangular stages
        merge through their own ``block_diag``.  When both stages of
        every part are one and the same object (a Cholesky factor solved
        forward then backward) the merged stages share one object too.
        """
        signatures = {p.signature for p in parts}
        if len(signatures) != 1:
            raise ValueError(
                f"block_diag needs solves of one signature, got {len(signatures)}"
            )
        offsets = np.concatenate([[0], np.cumsum([p.n for p in parts])[:-1]])

        def shifted(name: str) -> np.ndarray:
            return np.concatenate(
                [getattr(p, name) + off for p, off in zip(parts, offsets)]
            ).astype(np.int64)

        def joined(name: str) -> Optional[np.ndarray]:
            if getattr(parts[0], name) is None:
                return None
            return np.concatenate([getattr(p, name) for p in parts])

        first = parts[0]
        lower = type(first.lower[0]).block_diag([p.lower[0] for p in parts])
        if all(p.upper[0] is p.lower[0] for p in parts):
            upper = lower
        else:
            upper = type(first.upper[0]).block_diag([p.upper[0] for p in parts])
        return cls(
            perm_in=shifted("perm_in"),
            lower=(lower, first.lower[1]),
            upper=(upper, first.upper[1]),
            perm_out=shifted("perm_out"),
            diag=joined("diag"),
            scale_in=joined("scale_in"),
            scale_out=joined("scale_out"),
        )
