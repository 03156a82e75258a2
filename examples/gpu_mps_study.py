#!/usr/bin/env python
"""The paper's headline experiment in miniature: CPU vs GPU execution
with multiple MPI ranks per GPU via MPS (Section VI, Tables II/III).

One weak-scaled elasticity problem is solved with four decompositions:
the all-cores CPU layout and GPU layouts with 1, 2 and 4 ranks per GPU.
Real iteration counts come from the actual GDSW-preconditioned GMRES
runs; times come from the calibrated Summit-node model (model seconds --
see DESIGN.md).

Run:  python examples/gpu_mps_study.py
"""

from repro.bench import (
    model_machine,
    price_run,
    rank_grid,
    run_numerics,
    weak_scaled_problem,
)
from repro.bench.tables import format_table
from repro.dd import LocalSolverSpec, SchwarzConfig
from repro.runtime import JobLayout


def main() -> None:
    nodes = 2
    machine = model_machine()
    problem = weak_scaled_problem(nodes, elements_per_node_axis=8)
    print(
        f"3D elasticity, n = {problem.a.n_rows}, {nodes} model nodes "
        f"({machine.cores_per_node} cores + {machine.gpus_per_node} GPUs each)\n"
    )

    rows = []
    for tag, ranks_per_node, gpu, mps in (
        ("CPU, 1 rank/core", 8, False, None),
        ("GPU, 1 rank/GPU", 2, True, 1),
        ("GPU, 2 ranks/GPU (MPS)", 4, True, 2),
        ("GPU, 4 ranks/GPU (MPS)", 8, True, 4),
    ):
        config = SchwarzConfig(
            local=LocalSolverSpec(kind="tacho", ordering="nd", gpu_solve=gpu)
        )
        record = run_numerics(
            problem, rank_grid(nodes, ranks_per_node), config, cache_key=("mps", nodes)
        )
        layout = (
            JobLayout.gpu_run(nodes, mps, machine=machine)
            if gpu
            else JobLayout.cpu_run(nodes, machine=machine)
        )
        t = price_run(record, layout)
        rows.append(
            [
                tag,
                str(record.n_ranks),
                str(t.iterations),
                f"{1e3 * t.setup_seconds:.2f}",
                f"{1e3 * t.solve_seconds:.2f}",
                f"{1e3 * t.total_seconds:.2f}",
            ]
        )
    print(
        format_table(
            "GDSW + single-reduce GMRES under different rank placements "
            "[model ms]",
            ["configuration", "ranks", "iters", "setup", "solve", "total"],
            rows,
        )
    )
    print(
        "\nExpected shape (paper): more ranks per GPU -> smaller local\n"
        "factorizations (superlinear savings) and a better-conditioned\n"
        "preconditioner; the best MPS factor beats both the CPU run and\n"
        "the naive one-rank-per-GPU placement."
    )


if __name__ == "__main__":
    main()
