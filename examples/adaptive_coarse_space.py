#!/usr/bin/env python
"""Adaptive GDSW (AGDSW) on a high-contrast diffusion problem.

Section III of the paper: for "problems with a highly heterogeneous
coefficient, potentially with high jumps, adaptive GDSW enriches the
coarse space by additional components that are computed by solving local
generalized eigenvalue problems".

This example embeds beams of 10^6-times-stiffer material crossing the
subdomain interfaces and compares the coarse spaces: the eigenproblem
per interface component detects the low-energy channel modes and adds
exactly as many coarse functions as the contrast pattern requires.

Run:  python examples/adaptive_coarse_space.py
"""

import numpy as np

from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    LocalSolverSpec,
    SchwarzConfig,
    analyze_interface,
)
from repro.dd.adaptive import component_eigenmodes
from repro.fem import constant_nullspace, laplace_3d
from repro.fem.grid import StructuredGrid
from repro.krylov import gmres


def main() -> None:
    ne = 8
    grid = StructuredGrid(ne, ne, ne)
    coef = np.ones(grid.n_elements)
    ez, ey, _ = np.meshgrid(np.arange(ne), np.arange(ne), np.arange(ne), indexing="ij")
    beam = (ey % 2 == 1) & ((ez == 1) | (ez == 5))
    coef[beam.ravel()] = 1e6
    problem = laplace_3d(ne, coefficient=coef)
    print(
        f"3D diffusion, n = {problem.a.n_rows}, coefficient contrast 1e6 "
        f"({int(beam.sum())} beam elements)\n"
    )

    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    nullspace = constant_nullspace(problem.a.n_rows)

    # peek at the eigenvalue spectra driving the enrichment
    an = analyze_interface(dec, dim=3)
    comp = max(an.by_kind("face"), key=lambda c: c.nodes.size)
    w, _ = component_eigenmodes(dec, comp.nodes, tol=np.inf, max_modes=5)
    print("largest face component, smallest Neumann-Schur eigenvalues:")
    print("  ", np.array2string(w, precision=3, suppress_small=False))
    print("  (values << 1 signal channel modes the coarse space must carry)\n")

    spec = LocalSolverSpec(kind="tacho", ordering="nd")
    print(f"{'coarse space':10s} {'dim':>5s} {'iters':>6s} {'converged':>10s}")
    for variant in ("rgdsw", "gdsw", "agdsw"):
        m = GDSWPreconditioner(
            dec, nullspace, SchwarzConfig(local=spec, variant=variant)
        )
        res = gmres(problem.a, problem.b, preconditioner=m, rtol=1e-7, maxiter=1500)
        print(f"{variant:10s} {m.n_coarse:5d} {res.iterations:6d} {str(res.converged):>10s}")

    print(
        "\nAGDSW enriches exactly where the contrast crosses the interface\n"
        "(extra columns relative to GDSW) and keeps convergence robust; on\n"
        "a homogeneous problem it collapses back to classical GDSW."
    )


if __name__ == "__main__":
    main()
