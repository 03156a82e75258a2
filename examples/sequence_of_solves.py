#!/usr/bin/env python
"""Amortizing the numerical setup over a sequence of solves.

Section VIII-A of the paper: "If the application requires to solve a
sequence of the linear systems with different right-hand-sides, the cost
of the numerical setup can be amortized over multiple solves and the
speedups closer to 2x can be obtained."

This example solves one elasticity problem for several load cases
(different body-force directions), reusing the factored preconditioner,
and prices the amortization with the machine model: SuperLU must redo
its triangular-solver setup if the matrix values changed (pivoting),
while Tacho reuses everything symbolic.

Run:  python examples/sequence_of_solves.py
"""

import numpy as np

from repro.bench import model_machine, price_run, rank_grid, run_numerics
from repro.bench.tables import format_table
from repro.dd import Decomposition, GDSWPreconditioner, LocalSolverSpec, SchwarzConfig
from repro.fem import elasticity_3d, rigid_body_modes
from repro.krylov import gmres
from repro.runtime import JobLayout


def main() -> None:
    problem = elasticity_3d(8)
    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    m = GDSWPreconditioner(
        dec,
        rigid_body_modes(problem.coordinates),
        SchwarzConfig(local=LocalSolverSpec(kind="tacho", ordering="nd")),
    )

    # one preconditioner, many right-hand sides (load cases)
    print("solving four load cases with one factored preconditioner:")
    for load in ([0, 0, -1.0], [0, -1.0, 0], [1.0, 0, 0], [0.5, 0.5, -0.7]):
        p_load = elasticity_3d(8, body_force=tuple(load))
        res = gmres(problem.a, p_load.b, preconditioner=m, rtol=1e-7, restart=30)
        print(
            f"  body force {str(load):18s} -> {res.iterations:3d} iterations, "
            f"converged={res.converged}"
        )

    # model-second amortization: first solve vs repeated factorization
    machine = model_machine()
    layout = JobLayout.gpu_run(1, 4, machine=machine)
    rows = []
    for kind in ("superlu", "tacho"):
        cfg = SchwarzConfig(local=LocalSolverSpec(kind=kind, ordering="nd", gpu_solve=True))
        rec = run_numerics(problem, rank_grid(1, 8), cfg, cache_key=("seq",))
        t = price_run(rec, layout)
        rows.append(
            [
                kind,
                f"{1e3 * (t.first_setup_seconds + t.solve_seconds):.2f}",
                f"{1e3 * (t.setup_seconds + t.solve_seconds):.2f}",
                f"{1e3 * t.solve_seconds:.2f}",
            ]
        )
    print()
    print(
        format_table(
            "GPU model seconds per system in a solve sequence [model ms]",
            ["solver", "first solve", "new values", "new rhs only"],
            rows,
        )
    )
    print(
        "\n'new values' repeats the numerical factorization with symbolic\n"
        "reuse where the solver permits (Tacho: yes; SuperLU: pivoting\n"
        "forces the triangular-solver setup to rerun); 'new rhs only'\n"
        "reuses the factorization entirely."
    )


if __name__ == "__main__":
    main()
