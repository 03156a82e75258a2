"""Experiment harness reproducing the paper's evaluation section.

The harness separates the two halves of every experiment:

1. **numerics** (:func:`repro.bench.harness.run_numerics`) -- assemble
   the scaled 3D elasticity problem, decompose it, build the GDSW
   preconditioner with the requested solver options, and run
   single-reduce GMRES.  Iteration counts are *real*.  Results are
   memoized: the paper prices the same numerics under several layouts
   (CPU vs GPU vs MPS factors).
2. **pricing** (:func:`repro.bench.harness.price_run`) -- evaluate the
   per-rank kernel profiles under a :class:`~repro.runtime.JobLayout`
   to obtain the model-second setup/solve times of Tables II-VII.

The scaled "model Summit node" has 8 cores + 2 GPUs (the real 42+6 node
behaves identically in shape; see DESIGN.md).  Each paper table has a
generator in :mod:`repro.bench.experiments` that prints rows in the
paper's format and returns structured data for EXPERIMENTS.md.
"""

from repro.bench.harness import (
    NumericsRecord,
    model_machine,
    run_numerics,
    price_run,
    weak_scaled_problem,
    strong_scaled_problem,
    rank_grid,
)
from repro.bench.tables import format_table, speedup_row

__all__ = [
    "NumericsRecord",
    "format_table",
    "model_machine",
    "price_run",
    "rank_grid",
    "run_numerics",
    "speedup_row",
    "strong_scaled_problem",
    "weak_scaled_problem",
]
