"""Hot-path micro-benchmark of the array-backend refactor.

Times the three kernels whose pure-python row/column loops the backend
refactor replaced with vectorized equivalents -- the loops the
``repro.obs`` phase tables flagged as setup hot spots:

* :func:`repro.tri.levelset.level_schedule` (wavefront scheduling),
* :func:`repro.tri.supernodal.detect_supernodes` (supernode detection),
* the FastILU diagonal-position scan
  (:func:`repro.ilu.fastilu._diag_positions`).

and the two ILU setup loops vectorised after it:

* :func:`repro.ilu.iluk.iluk_symbolic` (level-of-fill pattern, levels
  0-3), and
* :func:`repro.ilu.iluk._scatter_to_pattern` (values onto the pattern,
  run by every ILU(k)/FastILU numeric phase).

Each is timed against its retained ``*_reference`` seed implementation
on the same inputs and checked for bit-identical outputs.  The
acceptance gate (enforced by ``python -m repro.bench --backend`` and
CI) is a >= 2x speedup on ``level_schedule`` at n >= 100k rows, the
``iluk_symbolic`` / ``scatter_to_pattern`` floors below at the same
full size, plus exact equality everywhere.

The structure under test for the first three is the strict lower
triangle of a 7-point Laplacian on an ``nx x ny x nz`` box -- the
pattern shape the paper's level-set SpTRSV experiments run on (long
wavefronts, ~3*nx levels).  The ILU kernels run on what they see in a
solve: the eight nested-dissection-ordered overlapping blocks of the
wall benchmark's ``laplace_fastilu`` workload.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.backend import available_backends
from repro.ilu.fastilu import _diag_positions, _diag_positions_reference
from repro.ilu.iluk import (
    _iluk_symbolic_reference,
    _scatter_to_pattern,
    _scatter_to_pattern_reference,
    iluk_symbolic,
)
from repro.sparse.csr import CsrMatrix
from repro.tri.levelset import _level_schedule_reference, level_schedule
from repro.tri.supernodal import _detect_supernodes_reference, detect_supernodes

__all__ = ["laplace_lower_structure", "fastilu_blocks", "run_backend_bench"]

#: the ISSUE acceptance floor: the de-looped scheduler must be at least
#: this much faster than the seed loop at n >= 100k
LEVEL_SCHEDULE_MIN_SPEEDUP = 2.0
#: floors on the ``laplace_fastilu`` blocks: ``iluk_symbolic`` at the
#: workload's level 1 (and never slower than the loop at levels 0-3),
#: ``_scatter_to_pattern`` on the level-1 pattern
ILUK_SYMBOLIC_MIN_SPEEDUP = 4.0
SCATTER_MIN_SPEEDUP = 2.0
#: cells per side of the ``laplace_fastilu`` problem
FASTILU_CELLS = 14


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


def fastilu_blocks(cells: int = FASTILU_CELLS) -> List[CsrMatrix]:
    """The local matrices FastILU factors on ``laplace_3d(cells)``:
    (2, 2, 2) box partition, overlap 1, nested-dissection ordered."""
    from repro.dd.decomposition import Decomposition
    from repro.dd.overlap import overlapping_subdomains
    from repro.fem import laplace_3d
    from repro.ordering import nested_dissection
    from repro.sparse.blocks import extract_submatrix, permute

    problem = laplace_3d(cells)
    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    blocks = []
    for nodes in overlapping_subdomains(dec, 1):
        dofs = dec.dofs_of_nodes(nodes)
        a_i = extract_submatrix(problem.a, dofs, dofs)
        blocks.append(permute(a_i, nested_dissection(a_i)))
    return blocks


def _same(x, y) -> bool:
    """Exact equality of arrays, or of (nested) sequences of arrays."""
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    return bool(np.array_equal(x, y))


def _compare(name, reference, vectorized, repeats, violations, floor=None) -> Dict:
    """Time ``vectorized`` (best of ``repeats``) against one run of the
    seed loop ``reference`` and compare their outputs exactly.

    Returns the four fields every row carries; a differing output, or a
    speedup under ``floor`` (when one applies), lands in ``violations``.
    """
    t0 = time.perf_counter()
    want = reference()
    ref_s = time.perf_counter() - t0
    vec_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        got = vectorized()
        vec_s = min(vec_s, time.perf_counter() - t0)
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


def run_backend_bench(nx: int = 48, repeats: int = 3) -> Dict:
    """Run the five hot-path before/after comparisons.

    Returns the ``BENCH_backend.json`` payload; ``violations`` is
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
            lambda: _level_schedule_reference(t),
            lambda: level_schedule(t),
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
            lambda: _detect_supernodes_reference(tt.indptr, tt.indices),
            lambda: detect_supernodes(tt.indptr, tt.indices),
            repeats, violations,
        ),
    }

    # FastILU diag-position scan (upper CSR: diagonal heads rows)
    diag_rec = {
        "n": n,
        **_compare(
            "diag_positions",
            lambda: _diag_positions_reference(tt.indptr, tt.indices),
            lambda: _diag_positions(tt.indptr, tt.indices),
            repeats, violations,
        ),
    }

    # ILU(k) symbolic, levels 0-3, and the pattern scatter, on the
    # laplace_fastilu blocks (smaller blocks in a reduced-size run)
    blocks = fastilu_blocks(min(FASTILU_CELLS, nx))
    by_level = {
        str(level): _compare(
            f"iluk_symbolic level {level}",
            lambda: [_iluk_symbolic_reference(b, level) for b in blocks],
            lambda: [iluk_symbolic(b, level) for b in blocks],
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
            lambda: [_scatter_to_pattern_reference(b, *p) for b, p in zip(blocks, patterns)],
            lambda: [_scatter_to_pattern(b, *p) for b, p in zip(blocks, patterns)],
            repeats, violations, floor(SCATTER_MIN_SPEEDUP),
        ),
    }

    return {
        "bench": "backend_hot_paths",
        "available_backends": available_backends(),
        "min_level_schedule_speedup": LEVEL_SCHEDULE_MIN_SPEEDUP,
        "paths": {
            "level_schedule": level_schedule_rec,
            "detect_supernodes": detect_rec,
            "diag_positions": diag_rec,
            "iluk_symbolic": iluk_rec,
            "scatter_to_pattern": scatter_rec,
        },
        "violations": violations,
    }
