#!/usr/bin/env python
"""Message-faithful distributed execution of the whole solver.

The reproduction normally runs its numerics on assembled global objects
and models communication analytically.  This example runs the *same*
solver the way MPI ranks would -- every rank holds only its owned matrix
rows and vector segments; ghost values travel as explicit messages
through a simulated communicator; inner products are allreduces; the
coarse problem is entered through one allreduce per application -- and
shows that results and message counts match the sequential execution.

Run:  python examples/distributed_execution.py
"""

import numpy as np

from repro.dd import Decomposition, GDSWPreconditioner, LocalSolverSpec, SchwarzConfig
from repro.fem import elasticity_3d, rigid_body_modes
from repro.krylov import cg
from repro.runtime import (
    DistributedCsr,
    DistributedVector,
    SimComm,
    distributed_cg,
    make_distributed_gdsw_apply,
)


def main() -> None:
    problem = elasticity_3d(6)
    dec = Decomposition.from_box_partition(problem, 2, 2, 2)
    print(
        f"n = {problem.a.n_rows}, {dec.n_subdomains} ranks, "
        f"rows per rank: {[d.size for d in DistributedCsr(problem.a, dec).owned_dofs]}"
    )

    a_dist = DistributedCsr(problem.a, dec)
    m = GDSWPreconditioner(
        dec, rigid_body_modes(problem.coordinates),
        SchwarzConfig(local=LocalSolverSpec(kind="tacho")),
    )

    # 1. distributed SpMV == sequential SpMV
    comm = SimComm(size=dec.n_subdomains)
    x = np.random.default_rng(0).standard_normal(problem.a.n_rows)
    xd = DistributedVector.from_global(x, a_dist.owned_dofs)
    y = a_dist.spmv(xd, comm).to_global(a_dist.owned_dofs, problem.a.n_rows)
    print(
        f"\nSpMV: max |distributed - sequential| = "
        f"{np.abs(y - problem.a.matvec(x)).max():.2e}  "
        f"(halo messages: {comm.sends}, bytes: {comm.bytes_sent})"
    )

    # 2. distributed GDSW apply == sequential apply, one coarse allreduce
    comm = SimComm(size=dec.n_subdomains)
    apply_d = make_distributed_gdsw_apply(m, a_dist)
    w = apply_d(xd, comm).to_global(a_dist.owned_dofs, problem.a.n_rows)
    print(
        f"GDSW apply: max diff = {np.abs(w - m.apply(x)).max():.2e}  "
        f"(messages: {comm.sends}, coarse allreduces: {comm.allreduces})"
    )

    # 3. full distributed PCG matches the sequential run
    comm = SimComm(size=dec.n_subdomains)
    bd = DistributedVector.from_global(problem.b, a_dist.owned_dofs)
    xd_sol, iters_d, conv = distributed_cg(
        a_dist, bd, comm, rtol=1e-8, preconditioner=apply_d
    )
    seq = cg(problem.a, problem.b, preconditioner=m, rtol=1e-8)
    x_sol = xd_sol.to_global(a_dist.owned_dofs, problem.a.n_rows)
    rel = np.linalg.norm(problem.a.matvec(x_sol) - problem.b) / np.linalg.norm(problem.b)
    print(
        f"\nPCG: distributed {iters_d} iterations vs sequential "
        f"{seq.iterations}; relres = {rel:.2e}; "
        f"allreduces = {comm.allreduces} "
        f"({comm.allreduces / max(iters_d, 1):.1f} per iteration), "
        f"halo messages = {comm.sends}"
    )
    print(
        "\nEvery quantity the analytic cost model charges for -- halo\n"
        "volumes, reduction counts, replicated coarse entry -- is counted\n"
        "here by actual messages."
    )


if __name__ == "__main__":
    main()
