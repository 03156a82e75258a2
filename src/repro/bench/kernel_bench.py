"""Micro-benchmark of the de-looped setup kernels.

Times the three kernels whose pure-python row/column loops were
replaced with vectorized equivalents -- the loops the
``repro.obs`` phase tables flagged as setup hot spots:

* :func:`repro.tri.levelset.level_schedule` (wavefront scheduling),
* :func:`repro.tri.supernodal.detect_supernodes` (supernode detection),
* the FastILU diagonal-position scan
  (:func:`repro.ilu.fastilu._diag_positions`).

and the setup loops vectorised after it:

* :func:`repro.ilu.iluk.iluk_symbolic` (level-of-fill pattern, levels
  0-3),
* :func:`repro.ilu.iluk._scatter_to_pattern` (values onto the pattern,
  run by every ILU(k)/FastILU numeric phase), and
* :meth:`repro.direct.multifrontal.MultifrontalCholesky.numeric` (the
  Tacho numeric phase on its pattern-only assembly plan),
* :meth:`repro.direct.gp_lu.GilbertPeierlsLU.numeric` (the SuperLU
  cold factorization in one right-looking pass), and
* :meth:`repro.direct.gp_lu.GilbertPeierlsLU.replay` (the SuperLU
  refactorization replaying the recorded pivot sequence), against the
  left-looking factorization loop it skips, and reported against the
  right-looking ``numeric`` as well.

Each is timed against its retained ``*_reference`` seed implementation
on the same inputs and checked for bit-identical outputs.  Both sides
run on every input ``repeats`` times (at least
:data:`FLOORED_REPEATS` where a floor applies), interleaved input by
input; each side keeps its best time per input and sums those minima.
The acceptance gate (enforced by ``python -m repro kernels`` and CI) is
a >= 2x speedup on ``level_schedule`` at n >= 100k rows, the
``iluk_symbolic`` / ``scatter_to_pattern`` / ``tacho_numeric`` /
``gp_numeric`` / ``gp_refactor`` floors below at the same full size,
plus exact equality everywhere.

The structure under test for the first three is the strict lower
triangle of a 7-point Laplacian on an ``nx x ny x nz`` box -- the
pattern shape the paper's level-set SpTRSV experiments run on (long
wavefronts, ~3*nx levels).  The ILU kernels run on what they see in a
solve: the eight nested-dissection-ordered overlapping blocks of the
wall benchmark's ``laplace_fastilu`` workload; the multifrontal numeric
runs on the eight overlapping blocks of ``elasticity_tacho``, the
SuperLU factorization and replay on those of ``laplace_superlu`` (the
replay on new values ``D A D`` with a seeded positive diagonal, as that
workload refactors).
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List

import numpy as np

from repro.direct import GilbertPeierlsLU, MultifrontalCholesky
from repro.ilu.fastilu import _diag_positions, _diag_positions_reference
from repro.ilu.iluk import (
    _iluk_symbolic_reference,
    _scatter_to_pattern,
    _scatter_to_pattern_reference,
    iluk_symbolic,
)
from repro.reuse import ArtifactCache, use_artifact_cache
from repro.sparse.csr import CsrMatrix
from repro.tri.levelset import _level_schedule_reference, level_schedule
from repro.tri.supernodal import _detect_supernodes_reference, detect_supernodes

__all__ = [
    "laplace_lower_structure", "fastilu_blocks", "tacho_blocks", "superlu_blocks",
    "run_kernel_bench", "summary",
]

#: the ISSUE acceptance floor: the de-looped scheduler must be at least
#: this much faster than the seed loop at n >= 100k
LEVEL_SCHEDULE_MIN_SPEEDUP = 2.0
#: floors on the ``laplace_fastilu`` blocks: ``iluk_symbolic`` at the
#: workload's level 1 (and never slower than the loop at levels 0-3),
#: ``_scatter_to_pattern`` on the level-1 pattern
ILUK_SYMBOLIC_MIN_SPEEDUP = 4.0
SCATTER_MIN_SPEEDUP = 2.0
#: floor on the ``elasticity_tacho`` blocks: the planned multifrontal
#: numeric phase against the column-scatter loop
TACHO_NUMERIC_MIN_SPEEDUP = 1.5
#: cells per side of the ``laplace_fastilu`` problem
FASTILU_CELLS = 14
#: cells per side of the ``elasticity_tacho`` problem
TACHO_CELLS = 9
#: floors on the ``laplace_superlu`` blocks: the right-looking cold
#: factorization, and the pivot-sequence replay, against the
#: left-looking Gilbert--Peierls loop
GP_NUMERIC_MIN_SPEEDUP = 2.0
GP_REFACTOR_MIN_SPEEDUP = 3.0
#: cells per side of the ``laplace_superlu`` problem
SUPERLU_CELLS = 10
#: repeats of a row with a speedup floor: a burst of host load slows a
#: block's time only if it hits every one of that block's repeats
FLOORED_REPEATS = 7


def laplace_lower_structure(nx: int, ny: int, nz: int) -> CsrMatrix:
    """Lower-triangular (diagonal included) 7-point Laplacian pattern."""
    n = nx * ny * nz
    i = np.arange(n, dtype=np.int64)
    rows = [i]
    cols = [i]
    for off, valid in (
        (1, i % nx != 0),
        (nx, (i // nx) % ny != 0),
        (nx * ny, i // (nx * ny) != 0),
    ):
        rows.append(i[valid])
        cols.append(i[valid] - off)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    return CsrMatrix.from_coo(r, c, np.ones(r.size), (n, n))


def _overlap_blocks(problem) -> List[CsrMatrix]:
    """The local matrices of ``problem`` under a (2, 2, 2) box partition
    with overlap 1, in local numbering."""
    from repro.dd.decomposition import Decomposition
    from repro.dd.overlap import overlapping_subdomains
    from repro.sparse.blocks import extract_submatrix

    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    return [
        extract_submatrix(problem.a, dofs, dofs)
        for dofs in map(dec.dofs_of_nodes, overlapping_subdomains(dec, 1))
    ]


def fastilu_blocks(cells: int = FASTILU_CELLS) -> List[CsrMatrix]:
    """The local matrices FastILU factors on ``laplace_3d(cells)``:
    (2, 2, 2) box partition, overlap 1, nested-dissection ordered."""
    from repro.fem import laplace_3d
    from repro.ordering import nested_dissection
    from repro.sparse.blocks import permute

    return [
        permute(a_i, nested_dissection(a_i))
        for a_i in _overlap_blocks(laplace_3d(cells))
    ]


def tacho_blocks(cells: int = TACHO_CELLS) -> List[CsrMatrix]:
    """The local matrices Tacho factors on ``elasticity_3d(cells)``:
    (2, 2, 2) box partition, overlap 1 (the solver orders them, ``nd``)."""
    from repro.fem import elasticity_3d

    return _overlap_blocks(elasticity_3d(cells))


def superlu_blocks(cells: int = SUPERLU_CELLS) -> List[CsrMatrix]:
    """The local matrices SuperLU factors on ``laplace_3d(cells)``:
    (2, 2, 2) box partition, overlap 1 (the solver orders them, ``nd``)."""
    from repro.fem import laplace_3d

    return _overlap_blocks(laplace_3d(cells))


def _same(x, y) -> bool:
    """Exact equality of arrays, or of (nested) sequences of arrays."""
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    return bool(np.array_equal(x, y))


def _timed(fn, x):
    """``fn(x)`` and its wall time."""
    t0 = time.perf_counter()
    out = fn(x)
    return out, time.perf_counter() - t0


def _compare(
    name, reference, vectorized, inputs, repeats, violations, floor=None
) -> Dict:
    """Time ``vectorized`` against the seed loop ``reference`` on every
    input and compare their outputs exactly.

    Both run on each input ``repeats`` times (at least
    :data:`FLOORED_REPEATS` when a floor applies), alternating input by
    input, so neither is measured cold against a warm other.  Each side
    keeps its best time per input, and its seconds are the sum of those
    minima.  Returns the four fields every row carries; a differing
    output, or a speedup under ``floor`` (when one applies), lands in
    ``violations``.
    """
    if floor is not None:
        repeats = max(repeats, FLOORED_REPEATS)
    ref_best = np.full(len(inputs), np.inf)
    vec_best = np.full(len(inputs), np.inf)
    want, got = [None] * len(inputs), [None] * len(inputs)
    for _ in range(max(1, repeats)):
        for i, x in enumerate(inputs):
            want[i], ref_t = _timed(reference, x)
            got[i], vec_t = _timed(vectorized, x)
            ref_best[i] = min(ref_best[i], ref_t)
            vec_best[i] = min(vec_best[i], vec_t)
    ref_s, vec_s = float(ref_best.sum()), float(vec_best.sum())
    speedup = ref_s / max(vec_s, 1e-12)
    identical = _same(want, got)
    if not identical:
        violations.append(f"{name}: vectorized result differs from seed loop")
    if floor is not None and speedup < floor:
        violations.append(f"{name}: speedup {speedup:.2f}x below the {floor:g}x floor")
    return {
        "reference_seconds": ref_s,
        "vectorized_seconds": vec_s,
        "speedup": speedup,
        "bit_identical": identical,
    }


def run_kernel_bench(nx: int = 48, repeats: int = 3) -> Dict:
    """Run the eight hot-path before/after comparisons.

    Returns the ``BENCH_kernels.json`` payload; ``violations`` is
    non-empty when a vectorized kernel fails bit-identity or, at full
    size (n >= 100k rows), one of the speedup floors.
    """
    t = laplace_lower_structure(nx, nx, nx)
    n = t.n_rows
    full_size = n >= 100_000
    violations: List[str] = []

    def floor(speedup: float):
        return speedup if full_size else None

    level_schedule_rec = {
        "n": n,
        "nnz": t.nnz,
        "n_levels": int(level_schedule(t).max()) + 1 if n else 0,
        **_compare(
            "level_schedule",
            _level_schedule_reference,
            level_schedule,
            [t],
            repeats, violations, floor(LEVEL_SCHEDULE_MIN_SPEEDUP),
        ),
    }

    # detect_supernodes (CSC lower == CSR upper, via transpose)
    tt = t.transpose()
    detect_rec = {
        "n": n,
        "n_supernodes": detect_supernodes(tt.indptr, tt.indices).size - 1,
        **_compare(
            "detect_supernodes",
            lambda x: _detect_supernodes_reference(x.indptr, x.indices),
            lambda x: detect_supernodes(x.indptr, x.indices),
            [tt],
            repeats, violations,
        ),
    }

    # FastILU diag-position scan (upper CSR: diagonal heads rows)
    diag_rec = {
        "n": n,
        **_compare(
            "diag_positions",
            lambda x: _diag_positions_reference(x.indptr, x.indices),
            lambda x: _diag_positions(x.indptr, x.indices),
            [tt],
            repeats, violations,
        ),
    }

    # ILU(k) symbolic, levels 0-3, and the pattern scatter, on the
    # laplace_fastilu blocks (smaller blocks in a reduced-size run)
    blocks = fastilu_blocks(min(FASTILU_CELLS, nx))
    by_level = {
        str(level): _compare(
            f"iluk_symbolic level {level}",
            lambda b: _iluk_symbolic_reference(b, level),
            lambda b: iluk_symbolic(b, level),
            blocks,
            repeats, violations,
            floor(ILUK_SYMBOLIC_MIN_SPEEDUP if level == 1 else 1.0),
        )
        for level in range(4)
    }
    iluk_rec = {
        "blocks": len(blocks),
        "rows": sum(b.n_rows for b in blocks),
        "level": 1,
        "min_speedup": ILUK_SYMBOLIC_MIN_SPEEDUP,
        **by_level["1"],
        "bit_identical": all(rec["bit_identical"] for rec in by_level.values()),
        "by_level": by_level,
    }
    patterns = [iluk_symbolic(b, 1) for b in blocks]
    scatter_rec = {
        "blocks": len(blocks),
        "pattern_nnz": sum(int(pind.size) for _, pind in patterns),
        "min_speedup": SCATTER_MIN_SPEEDUP,
        **_compare(
            "scatter_to_pattern",
            lambda bp: _scatter_to_pattern_reference(bp[0], *bp[1]),
            lambda bp: _scatter_to_pattern(bp[0], *bp[1]),
            list(zip(blocks, patterns)),
            repeats, violations, floor(SCATTER_MIN_SPEEDUP),
        ),
    }

    # the multifrontal numeric phase on the elasticity_tacho blocks, over
    # the symbolic records they share in a build
    tblocks = tacho_blocks(min(TACHO_CELLS, nx))
    with use_artifact_cache(ArtifactCache()):
        solvers = [MultifrontalCholesky(ordering="nd").symbolic(b) for b in tblocks]
    records = {id(t.symbolic_record): t.symbolic_record for t in solvers}

    def factors(run: str):
        def one(sb):
            getattr(sb[0], run)(sb[1])
            return sb[0].factor.blocks

        return one

    tacho_rec = {
        "blocks": len(tblocks),
        "rows": sum(b.n_rows for b in tblocks),
        "supernodes": sum(t.symbolic_record.sn_ptr.size - 1 for t in solvers),
        "records": len(records),
        "plan_bytes": sum(r.plan_bytes for r in records.values()),
        "min_speedup": TACHO_NUMERIC_MIN_SPEEDUP,
        **_compare(
            "tacho_numeric",
            factors("_numeric_reference"),
            factors("numeric"),
            list(zip(solvers, tblocks)),
            repeats, violations, floor(TACHO_NUMERIC_MIN_SPEEDUP),
        ),
    }

    # the SuperLU cold factorization and refactorization on the
    # laplace_superlu blocks, against the left-looking reference loop
    sblocks = superlu_blocks(min(SUPERLU_CELLS, nx))
    rng = np.random.default_rng(7)
    new_values = []
    for b in sblocks:
        d = 1.0 + 0.1 * rng.random(b.n_rows)
        new_values.append(
            CsrMatrix(b.indptr, b.indices, d[b.expanded_rows()] * b.data * d[b.indices], b.shape)
        )
    with use_artifact_cache(ArtifactCache()):
        gp_symbolic = [GilbertPeierlsLU(ordering="nd").symbolic(b) for b in sblocks]
        gp_records = [
            GilbertPeierlsLU(ordering="nd").factorize(b).pivot_record() for b in sblocks
        ]
    probe = np.cos(np.arange(max(b.n_rows for b in sblocks)))

    def gp_factors(s):
        apply = s.stages.apply(probe[: s.pinv.size])
        return [*s._l, *s._u, s.row_perm, np.float64(s.flops), apply]

    def gp_run(run: str):
        return lambda sa: gp_factors(getattr(copy.copy(sa[0]), run)(sa[1]))

    def declined(sym, b) -> bool:
        """Whether ``numeric`` hands ``b`` to the reference loop."""
        solver, handed = copy.copy(sym), []

        def reference(m):
            handed.append(m)
            return GilbertPeierlsLU._numeric_reference(solver, m)

        solver._numeric_reference = reference
        solver.numeric(b)
        return bool(handed)

    gp_numeric_rec = {
        "blocks": len(sblocks),
        "rows": sum(b.n_rows for b in sblocks),
        "declined": sum(declined(s, b) for s, b in zip(gp_symbolic, sblocks)),
        "workspace_bytes": max(8 * b.n_rows**2 for b in sblocks),
        "min_speedup": GP_NUMERIC_MIN_SPEEDUP,
        **_compare(
            "gp_numeric",
            gp_run("_numeric_reference"),
            gp_run("numeric"),
            list(zip(gp_symbolic, sblocks)),
            repeats, violations, floor(GP_NUMERIC_MIN_SPEEDUP),
        ),
    }
    if gp_numeric_rec["declined"]:
        violations.append("gp_numeric: a block fell back to the reference loop")

    replay = gp_run("replay")
    pairs = list(zip(gp_records, new_values))
    gp_rec = {
        "blocks": len(sblocks),
        "rows": sum(b.n_rows for b in sblocks),
        "replayed": sum(r.replay(a2) is not None for r, a2 in pairs),
        "record_bytes": sum(
            sum(arr.nbytes for arr in (*r._l[:2], *r._u[:2], r.pinv, r.row_perm))
            for r in gp_records
        ),
        "workspace_bytes": max(8 * b.n_rows**2 for b in sblocks),
        "min_speedup": GP_REFACTOR_MIN_SPEEDUP,
        **_compare(
            "gp_refactor",
            gp_run("_numeric_reference"),
            replay,
            pairs,
            repeats, violations, floor(GP_REFACTOR_MIN_SPEEDUP),
        ),
        # no floor: both sides are the fast paths
        "vs_numeric": _compare(
            "gp_refactor vs numeric", gp_run("numeric"), replay, pairs, repeats, violations
        ),
    }
    if gp_rec["replayed"] != len(sblocks):
        violations.append("gp_refactor: a block fell back to the full factorization")

    return {
        "bench": "kernel_hot_paths",
        "min_level_schedule_speedup": LEVEL_SCHEDULE_MIN_SPEEDUP,
        "paths": {
            "level_schedule": level_schedule_rec,
            "detect_supernodes": detect_rec,
            "diag_positions": diag_rec,
            "iluk_symbolic": iluk_rec,
            "scatter_to_pattern": scatter_rec,
            "tacho_numeric": tacho_rec,
            "gp_numeric": gp_numeric_rec,
            "gp_refactor": gp_rec,
        },
        "violations": violations,
    }


def summary(doc: Dict) -> List[str]:
    """One timing line per kernel."""
    return [
        f"{name:18s}: {rec['reference_seconds']:.3e}s -> "
        f"{rec['vectorized_seconds']:.3e}s ({rec['speedup']:.1f}x, "
        f"bit_identical={rec['bit_identical']})"
        for name, rec in sorted(doc["paths"].items())
    ]
