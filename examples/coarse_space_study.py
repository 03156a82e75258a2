#!/usr/bin/env python
"""Coarse-space ablation: one-level vs GDSW vs reduced GDSW (Section III).

Demonstrates the two claims the GDSW construction rests on:

1. one-level Schwarz degrades as the number of subdomains grows;
2. the energy-minimizing coarse level keeps iterations bounded, with
   rGDSW trading a slightly weaker space for a much smaller coarse
   problem (the paper's default).

Run:  python examples/coarse_space_study.py
"""

from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    LocalSolverSpec,
    OneLevelSchwarz,
    SchwarzConfig,
)
from repro.fem import elasticity_3d, rigid_body_modes
from repro.krylov import gmres


def main() -> None:
    spec = LocalSolverSpec(kind="tacho", ordering="nd")
    print(
        f"{'subdomains':>10s} {'one-level':>10s} {'gdsw':>12s} {'rgdsw':>12s}"
        f"   (iterations; coarse dim in parentheses)"
    )
    for ne, parts in ((8, (2, 2, 1)), (8, (2, 2, 2)), (10, (4, 2, 2)), (12, (4, 4, 2))):
        problem = elasticity_3d(ne)
        dec = Decomposition.from_box_partition(problem, *parts)
        z = rigid_body_modes(problem.coordinates)

        one = OneLevelSchwarz(dec, spec, overlap=1)
        r1 = gmres(
            problem.a, problem.b, preconditioner=one.apply, rtol=1e-7, maxiter=900
        )

        cells = [f"{dec.n_subdomains:10d}", f"{r1.iterations:10d}"]
        for variant in ("gdsw", "rgdsw"):
            m = GDSWPreconditioner(dec, z, SchwarzConfig(local=spec, variant=variant))
            r = gmres(problem.a, problem.b, preconditioner=m, rtol=1e-7)
            cells.append(f"{r.iterations:6d} ({m.n_coarse:3d})")
        print(" ".join(cells))

    print(
        "\nExpected shape: the one-level column grows with the subdomain\n"
        "count; both two-level columns stay nearly flat, with rGDSW using\n"
        "a fraction of GDSW's coarse dimension."
    )


if __name__ == "__main__":
    main()
