"""Block (multi-RHS) GMRES for same-operator request batches.

The serving layer (:mod:`repro.serve`) coalesces same-pattern solve
requests into one multi-RHS solve: ``k`` tenants sharing one operator
cost one *set* of SpMVs and one *set* of global reductions per
iteration instead of ``k``.  :func:`block_gmres` runs ``k`` independent
GMRES iterations in lockstep over an ``(n, k)`` iterate block:

* the SpMV is batched -- one :meth:`~repro.sparse.csr.CsrMatrix.matmat`
  over the active block per step (one kernel-launch set, ``k``-fold
  arithmetic intensity);
* the preconditioner is batched -- an object with an ``apply`` method
  (every preconditioner of the package) receives the active ``(n, w)``
  block in one call per step; only a plain callable is applied column
  by column;
* the global reductions of one lockstep step are batched -- the block
  issues ``max_c(reduces_c)`` reductions carrying ``sum_c(doubles_c)``
  values, so a step costs one latency term regardless of the block
  width (the multi-tenant analogue of the single-reduce GMRES idea);
* converged columns are *deflated*: they leave the active block, so the
  batched SpMV and reduction payloads shrink as tenants finish.

Per-column arithmetic is exactly the single-RHS arithmetic of
:func:`repro.krylov.gmres.gmres` -- columns
never mix (each keeps its own Arnoldi basis, Hessenberg factor and
Givens rotations; the batched SpMV and the block preconditioner apply
compute each column exactly as the single-vector kernels do).  Column
``c`` of a block solve therefore reproduces the single-RHS solve of
``(a, b[:, c])``
bit for bit: same iterates, same residual history, same iteration
count.  The documented agreement tolerance for the serving gate is
``BLOCK_ITERATION_TOLERANCE`` extra iterations per column (0 in this
implementation; the gate allows the slack so a future genuinely-fused
orthogonalization keeps the contract meaningful).

Observers and resilience guards are not supported here: batched serving
runs the plain solve path (a breakdown surfaces in the per-column
``status``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.krylov.gmres import (
    GMRES_VARIANTS,
    _ORTHO_EPS,
    _as_apply,
    _back_substitute,
    _givens_update,
    _orthogonalize,
)
from repro.krylov.reduce import ReduceCounter
from repro.krylov.status import SolveStatus
from repro.obs import get_tracer
from repro.sparse.csr import CsrMatrix

__all__ = [
    "BLOCK_ITERATION_TOLERANCE",
    "BlockSolveResult",
    "block_gmres",
]

Operator = Union[CsrMatrix, Callable[[np.ndarray], np.ndarray]]

#: documented per-column iteration-count slack of a block solve relative
#: to the corresponding single-RHS solve.  The lockstep implementation
#: is bit-identical per column, so the observed slack is 0; benchmarks
#: and CI gate on this constant rather than on exact equality.
BLOCK_ITERATION_TOLERANCE = 0


@dataclass
class BlockSolveResult:
    """Outcome of one block solve over an ``(n, k)`` right-hand-side block.

    Per-column fields mirror :class:`~repro.krylov.gmres.GmresResult`;
    the reduction counters are the
    *batched* counts the block actually issued (the per-step maximum
    over columns, not the per-column sum).

    Attributes
    ----------
    x:
        ``(n, k)`` solution block.
    iterations:
        Inner iterations per column.
    converged:
        Per-column convergence flags.
    residual_norms:
        Per-column residual histories (identical to the single-RHS
        histories).
    statuses:
        Per-column terminal :class:`~repro.krylov.status.SolveStatus`.
    reduces, reduce_doubles:
        Batched global reductions issued for the whole block and the
        total float64 payload they carried.
    spmv_blocks:
        Batched SpMV applications (each covers the active block width).
    """

    x: np.ndarray
    iterations: List[int]
    converged: List[bool]
    residual_norms: List[List[float]]
    statuses: List[SolveStatus] = field(default_factory=list)
    reduces: int = 0
    reduce_doubles: int = 0
    spmv_blocks: int = 0

    @property
    def all_converged(self) -> bool:
        """True when every column converged."""
        return all(self.converged)

    @property
    def max_iterations(self) -> int:
        """The slowest column's iteration count (the block's depth)."""
        return max(self.iterations) if self.iterations else 0


class _Tally(ReduceCounter):
    """Per-column reducer: passes values through, tallies counts.

    The orthogonalization kernels see a plain
    :class:`~repro.krylov.reduce.ReduceCounter`, so per-column
    arithmetic is untouched while the block layer decides how the
    tallies fold into batched reductions.
    """

    def take(self) -> tuple:
        """Return and reset ``(count, doubles)``."""
        out = (self.count, self.doubles)
        self.reset()
        return out


class _BatchedReduces:
    """Folds per-column tallies of one lockstep step into batched counts.

    A block solver issues, per step, ``max_c(count_c)`` reductions (the
    columns share each batched payload; a column paying an extra
    reorthogonalization pass adds one more batched reduction) carrying
    ``sum_c(doubles_c)`` values.  Tallies land on the ambient tracer
    like :class:`~repro.obs.tracer.TracerReduceCounter` contributions.
    """

    __slots__ = ("tracer", "count", "doubles")

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.count = 0
        self.doubles = 0

    def charge(self, tallies) -> None:
        pairs = [t.take() for t in tallies]
        if not pairs:
            return
        count = max(c for c, _ in pairs)
        doubles = sum(d for _, d in pairs)
        if count == 0:
            return
        self.count += count
        self.doubles += doubles
        self.tracer.count("reduces", float(count))
        self.tracer.count("reduce_doubles", float(doubles))


def _as_block_apply(op: Optional[Operator]):
    """Batched application ``X -> op(X)`` over an ``(n, w)`` block.

    A :class:`CsrMatrix` is one SpMM and an object with an ``apply``
    method (the package's preconditioners) takes the whole block in one
    call -- both return, in column ``j``, exactly what they return for
    column ``j`` alone.  Only a plain callable, which promises nothing
    about 2-D input, is applied column by column.
    """
    if isinstance(op, CsrMatrix):
        return op.matmat
    if hasattr(op, "apply"):
        return op.apply
    apply1 = _as_apply(op)

    def apply_block(x_block: np.ndarray) -> np.ndarray:
        return np.column_stack(
            [apply1(x_block[:, i]) for i in range(x_block.shape[1])]
        )

    return apply_block


def _initial_block(x0, n: int, k: int) -> np.ndarray:
    """The ``(n, k)`` starting iterate (zero, or a float64 copy of ``x0``)."""
    if x0 is None:
        return np.zeros((n, k))
    x_block = np.array(x0, dtype=np.float64)
    if x_block.shape != (n, k):
        raise ValueError(
            f"x0 must match the rhs block shape {(n, k)}, got {x_block.shape}"
        )
    return x_block


def _block_result(cols, iterations, batched, spmv_blocks) -> "BlockSolveResult":
    """Gather the per-column states into one :class:`BlockSolveResult`."""
    return BlockSolveResult(
        x=np.stack([c.x for c in cols], axis=1),
        iterations=iterations,
        converged=[c.converged for c in cols],
        residual_norms=[c.residuals for c in cols],
        statuses=[c.status for c in cols],
        reduces=batched.count,
        reduce_doubles=batched.doubles,
        spmv_blocks=spmv_blocks,
    )


def _check_block_rhs(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] < 1:
        raise ValueError(
            f"block right-hand side must be a 2-D (n, k) array with "
            f"k >= 1, got shape {b.shape}"
        )
    return b


class _GmresColumn:
    """One column's full single-RHS GMRES state (never mixed across
    columns -- the lockstep loop only synchronizes the *schedule*)."""

    __slots__ = (
        "idx", "b", "x", "residuals", "total_iters", "cycles",
        "converged", "done", "status", "tol_abs", "tally",
        "v", "z", "h", "cs", "sn", "g", "j", "j_used", "m",
        "in_cycle", "orth_state", "check_pending",
    )

    def __init__(self, idx: int, b: np.ndarray, x: np.ndarray) -> None:
        self.idx = idx
        self.b = b
        self.x = x
        self.residuals: List[float] = []
        self.total_iters = 0
        self.cycles = 0
        self.converged = False
        self.done = False
        self.status = SolveStatus.MAXITER
        self.tol_abs = 0.0
        self.tally = _Tally()
        self.in_cycle = False
        self.check_pending = False

    def open_cycle(self, r: np.ndarray, beta: float, restart: int,
                   maxiter: int) -> None:
        n = self.b.size
        self.cycles += 1
        self.m = min(restart, maxiter - self.total_iters)
        self.v = np.empty((self.m + 1, n))
        self.z = np.empty((self.m, n))
        self.h = np.zeros((self.m + 1, self.m))
        self.cs = np.zeros(self.m)
        self.sn = np.zeros(self.m)
        self.g = np.zeros(self.m + 1)
        self.g[0] = beta
        self.v[0] = r / beta
        self.j = 0
        self.j_used = 0
        self.orth_state = {"gamma": _ORTHO_EPS}
        self.in_cycle = True
        self.check_pending = False

    def close_cycle(self) -> None:
        """Solution update from the cycle (identical back-substitution)."""
        self.in_cycle = False
        ju = self.j_used
        if ju:
            y = _back_substitute(self.h, self.g, ju)
            self.x = self.x + self.z[:ju].T @ y


def block_gmres(
    a: Operator,
    b: np.ndarray,
    preconditioner: Optional[Operator] = None,
    x0: Optional[np.ndarray] = None,
    rtol: float = 1e-7,
    restart: int = 30,
    maxiter: int = 1000,
    variant: str = "single_reduce",
) -> BlockSolveResult:
    """Solve ``A x_c = b[:, c]`` for every column with lockstep GMRES(m).

    Parameters mirror :func:`repro.krylov.gmres.gmres`; ``b`` (and the
    optional ``x0``) are ``(n, k)`` blocks.  Columns run independent
    restarted GMRES iterations scheduled in lockstep: each step applies
    one batched SpMV over the active block and issues one batched set of
    reductions; columns that converge (explicitly confirmed, as in the
    single-RHS solver) are deflated out of the block.
    """
    if variant not in GMRES_VARIANTS:
        raise ValueError(
            f"unknown GMRES variant {variant!r}; valid variants: "
            + ", ".join(repr(v) for v in GMRES_VARIANTS)
        )
    b = _check_block_rhs(b)
    n, k = b.shape
    apply_m = _as_block_apply(preconditioner)
    apply_block = _as_block_apply(a)
    tr = get_tracer()
    batched = _BatchedReduces(tr)
    spmv_blocks = 0

    x_block = _initial_block(x0, n, k)
    cols = [_GmresColumn(c, b[:, c], x_block[:, c].copy()) for c in range(k)]

    def _block_residuals(subset) -> np.ndarray:
        nonlocal spmv_blocks
        xs = np.stack([c.x for c in subset], axis=1)
        with tr.span("krylov/spmv") as sp:
            sp.count("block_width", float(len(subset)))
            ax = apply_block(xs)
        spmv_blocks += 1
        return np.stack([c.b for c in subset], axis=1) - ax

    # initial residual: beta0 anchors the convergence target per column.
    # Columns are copied out of the block before any dot product: a
    # strided view changes BLAS summation order, which would break the
    # bit-for-bit match with the single-RHS solvers.
    r0_block = _block_residuals(cols)
    for i, c in enumerate(cols):
        r = r0_block[:, i].copy()
        beta0 = float(np.sqrt(c.tally.allreduce(r @ r)[0]))
        c.residuals.append(beta0)
        c.tol_abs = rtol * beta0
        if beta0 == 0.0:
            c.converged = True
            c.done = True
            c.status = SolveStatus.CONVERGED
    batched.charge([c.tally for c in cols])

    while True:
        # columns between cycles: start a new one (or retire)
        starting = [c for c in cols if not c.done and not c.in_cycle]
        if starting:
            r_block = _block_residuals(starting)
            for i, c in enumerate(starting):
                if c.total_iters >= maxiter:
                    c.done = True
                    continue
                r = r_block[:, i].copy()
                beta = float(np.sqrt(c.tally.allreduce(r @ r)[0]))
                if beta <= c.tol_abs:
                    c.converged = True
                    c.done = True
                    c.status = SolveStatus.CONVERGED
                else:
                    c.open_cycle(r, beta, restart, maxiter)
            batched.charge([c.tally for c in starting])

        running = [c for c in cols if not c.done and c.in_cycle]
        if not running:
            break

        # one lockstep Arnoldi step over the active block: one
        # preconditioner apply and one SpMM for all running columns
        zs = apply_m(np.stack([c.v[c.j] for c in running], axis=1))
        for i, c in enumerate(running):
            c.z[c.j] = zs[:, i]
        with tr.span("krylov/spmv") as sp:
            sp.count("block_width", float(len(running)))
            w_block = apply_block(zs)
        spmv_blocks += 1

        with tr.span("krylov/orth") as sp:
            sp.count("block_width", float(len(running)))
            for i, c in enumerate(running):
                j = c.j
                hj, hnext, w = _orthogonalize(
                    variant, c.v[: j + 1], w_block[:, i].copy(), c.tally,
                    c.orth_state,
                )
                h, g = c.h, c.g
                h[: j + 1, j] = hj
                h[j + 1, j] = hnext
                if hnext > 0:
                    c.v[j + 1] = w / hnext
                else:  # lucky breakdown
                    c.v[j + 1] = 0.0
                _givens_update(h, g, c.cs, c.sn, j)
                c.total_iters += 1
                c.j_used = j + 1
                c.residuals.append(abs(g[j + 1]))
                if abs(g[j + 1]) <= c.tol_abs or hnext == 0.0:
                    c.converged = abs(g[j + 1]) <= c.tol_abs
                    c.check_pending = c.converged
                    c.close_cycle()
                elif j + 1 >= c.m:
                    c.close_cycle()
                else:
                    c.j = j + 1
            batched.charge([c.tally for c in running])

        # explicit residual confirmation (Belos-style) for candidates
        candidates = [c for c in running if c.check_pending]
        if candidates:
            r_block = _block_residuals(candidates)
            for i, c in enumerate(candidates):
                r = r_block[:, i].copy()
                true_norm = float(np.sqrt(c.tally.allreduce(r @ r)[0]))
                c.converged = true_norm <= c.tol_abs * (1 + 1e-12)
                c.check_pending = False
                if c.converged:
                    c.done = True
                    c.status = SolveStatus.CONVERGED
            batched.charge([c.tally for c in candidates])

    return _block_result(
        cols, [c.total_iters for c in cols], batched, spmv_blocks
    )
