"""Ablation benches for the design choices DESIGN.md calls out.

Not paper tables, but the paper's design decisions made measurable:
coarse-space variant, solver-level choices, SpTRSV granularity, and
GMRES orthogonalization.
"""

import numpy as np
import pytest

from repro.bench import model_machine
from repro.bench.tables import format_table
from repro.dd import (
    Decomposition,
    GDSWPreconditioner,
    LocalSolverSpec,
    OneLevelSchwarz,
    SchwarzConfig,
)
from repro.fem import elasticity_3d, rigid_body_modes
from repro.krylov import gmres
from repro.obs import Tracer, use_tracer
from repro.runtime import JobLayout, price_profile, reduce_seconds


@pytest.fixture(scope="module")
def problem():
    return elasticity_3d(8)


@pytest.fixture(scope="module")
def dec(problem):
    return Decomposition.from_box_partition(problem, 2, 2, 2)


@pytest.fixture(scope="module")
def nullspace(problem):
    return rigid_body_modes(problem.coordinates)


def test_ablation_coarse_space(benchmark, save_results, problem, dec, nullspace):
    """One-level vs GDSW vs rGDSW: iterations and coarse dimensions."""
    spec = LocalSolverSpec(kind="tacho", ordering="nd")
    one = OneLevelSchwarz(dec, spec, overlap=1)
    r_one = gmres(problem.a, problem.b, preconditioner=one.apply, rtol=1e-7, maxiter=900)
    rows = [["one-level", "-", str(r_one.iterations)]]
    data = {"one-level": {"iters": r_one.iterations, "n_coarse": 0}}
    for variant in ("gdsw", "rgdsw"):
        m = GDSWPreconditioner(dec, nullspace, SchwarzConfig(local=spec, variant=variant))
        r = gmres(problem.a, problem.b, preconditioner=m, rtol=1e-7)
        rows.append([variant, str(m.n_coarse), str(r.iterations)])
        data[variant] = {"iters": r.iterations, "n_coarse": m.n_coarse}
        benchmark.extra_info[variant] = r.iterations
    print()
    print(format_table("Ablation: coarse space", ["variant", "n_coarse", "iters"], rows))
    save_results("ablation_coarse_space", data)
    benchmark.pedantic(
        lambda: gmres(problem.a, problem.b, preconditioner=one.apply, rtol=1e-7,
                      maxiter=900),
        rounds=1, iterations=1,
    )
    assert data["gdsw"]["iters"] <= data["rgdsw"]["iters"] + 2
    assert data["rgdsw"]["iters"] < data["one-level"]["iters"]
    assert data["rgdsw"]["n_coarse"] < data["gdsw"]["n_coarse"]


def test_ablation_overlap_width(benchmark, save_results, problem, dec, nullspace):
    """Condition-number bound: kappa <= C (1 + H/delta)(...): wider
    overlap -> fewer iterations (at higher local cost)."""
    spec = LocalSolverSpec(kind="tacho", ordering="nd")
    iters = {}
    for overlap in (0, 1, 2):
        m = GDSWPreconditioner(dec, nullspace, SchwarzConfig(local=spec, overlap=overlap))
        r = gmres(problem.a, problem.b, preconditioner=m, rtol=1e-7, maxiter=900)
        iters[overlap] = r.iterations
    print("\nAblation overlap -> iterations:", iters)
    save_results("ablation_overlap", {str(k): v for k, v in iters.items()})
    benchmark.pedantic(lambda: iters, rounds=1, iterations=1)
    assert iters[1] <= iters[0]
    assert iters[2] <= iters[1] + 2


def test_ablation_sptrsv_granularity(benchmark, save_results, problem):
    """Element level-set vs supernodal vs partitioned-inverse SpTRSV:
    launches and priced GPU time for the same exact solve."""
    from repro.direct import MultifrontalCholesky
    from repro.sparse import CsrMatrix
    from repro.tri import (
        LevelScheduledTriangular,
        PartitionedInverseTriangular,
    )

    a = Decomposition.from_box_partition(problem, 2, 2, 2)
    from repro.sparse.blocks import extract_submatrix
    from repro.dd.overlap import overlapping_subdomains

    dofs = a.dofs_of_nodes(overlapping_subdomains(a, 1)[0])
    a_i = extract_submatrix(problem.a, dofs, dofs)
    mf = MultifrontalCholesky(ordering="nd").factorize(a_i)
    snt = mf.factor

    # element-wise factor: flatten the supernodal factor to CSR
    lc = np.zeros((a_i.n_rows, a_i.n_rows))
    for s in range(snt.n_supernodes):
        c0, c1 = snt.sn_ptr[s], snt.sn_ptr[s + 1]
        w = c1 - c0
        blk = snt.blocks[s]
        lc[c0:c1, c0:c1] = np.tril(blk[:w])
        if snt.rows_below[s].size:
            lc[snt.rows_below[s], c0:c1] = blk[w:]
    lcsr = CsrMatrix.from_dense(lc, tol=0.0)
    element = LevelScheduledTriangular(lcsr, lower=True)
    pinv = PartitionedInverseTriangular(lcsr, lower=True)

    machine = model_machine()
    gpu = JobLayout.gpu_run(1, 4, machine=machine)
    rows, data = [], {}
    for tag, prof in (
        ("element level-set", element.kernel_profile()),
        ("supernodal", snt.kernel_profile()),
        ("partitioned inverse", pinv.kernel_profile()),
    ):
        t = price_profile(prof, gpu)
        rows.append([tag, str(prof.total_launches), f"{1e6 * t:.1f}"])
        data[tag] = {"launches": prof.total_launches, "gpu_us": 1e6 * t}
    print()
    print(
        format_table(
            f"Ablation: SpTRSV granularity (local n={a_i.n_rows}, one L-solve)",
            ["algorithm", "launches", "GPU time [model us]"],
            rows,
        )
    )
    save_results("ablation_sptrsv", data)
    benchmark.pedantic(lambda: price_profile(snt.kernel_profile(), gpu), rounds=3, iterations=1)
    # supernodal blocking shortens the launch-bound critical path
    assert data["supernodal"]["launches"] < data["element level-set"]["launches"]
    assert data["supernodal"]["gpu_us"] < data["element level-set"]["gpu_us"]
    # partitioned inverse trades launches for full-vector SpMVs
    assert data["partitioned inverse"]["launches"] >= data["supernodal"]["launches"] or (
        data["partitioned inverse"]["gpu_us"] > 0
    )


def test_ablation_gmres_variant_comm(benchmark, save_results, problem, dec, nullspace):
    """Single-reduce GMRES saves modeled communication at scale."""
    spec = LocalSolverSpec(kind="tacho", ordering="nd")
    m = GDSWPreconditioner(dec, nullspace, SchwarzConfig(local=spec))
    machine = model_machine()
    lay = JobLayout.cpu_run(8, machine=machine)  # 64 logical ranks for pricing
    rows, data = [], {}
    for variant in ("mgs", "cgs", "single_reduce"):
        counted = Tracer()
        with use_tracer(counted):
            r = gmres(
                problem.a, problem.b, preconditioner=m, rtol=1e-7,
                variant=variant,
            )
        comm = reduce_seconds(lay, counted.reduces, counted.reduce_doubles)
        rows.append(
            [variant, str(r.iterations), str(counted.reduces), f"{1e6 * comm:.1f}"]
        )
        data[variant] = {
            "iters": r.iterations, "reduces": counted.reduces, "comm_us": 1e6 * comm
        }
    print()
    print(
        format_table(
            "Ablation: GMRES orthogonalization (64-rank reduce pricing)",
            ["variant", "iters", "reduces", "comm [model us]"],
            rows,
        )
    )
    save_results("ablation_gmres_variant", data)
    benchmark.pedantic(
        lambda: gmres(problem.a, problem.b, preconditioner=m, rtol=1e-7), rounds=1,
        iterations=1,
    )
    assert data["single_reduce"]["comm_us"] < data["cgs"]["comm_us"] < data["mgs"]["comm_us"]
    # iteration counts stay comparable across variants
    its = [d["iters"] for d in data.values()]
    assert max(its) - min(its) <= 3


def test_ablation_amortized_refactorization(benchmark, save_results, problem, dec, nullspace):
    """Section VIII-A: solving a sequence of systems amortizes the setup;
    Tacho's reusable symbolic phase pays off on refactorization."""
    from repro.bench import price_run, run_numerics

    machine = model_machine()
    rows, data = [], {}
    for kind in ("superlu", "tacho"):
        cfg = SchwarzConfig(local=LocalSolverSpec(kind=kind, ordering="nd", gpu_solve=True))
        rec = run_numerics(problem, (2, 2, 2), cfg, cache_key=("amort",))
        t = price_run(rec, JobLayout.gpu_run(1, 4, machine=machine))
        first_total = t.first_setup_seconds + t.solve_seconds
        amortized = t.setup_seconds + t.solve_seconds
        rows.append(
            [kind, f"{1e3 * first_total:.2f}", f"{1e3 * amortized:.2f}",
             f"{first_total / amortized:.2f}x"]
        )
        data[kind] = {
            "first_ms": 1e3 * first_total, "amortized_ms": 1e3 * amortized
        }
    print()
    print(
        format_table(
            "Ablation: first solve vs repeated solve (setup amortization)",
            ["solver", "first [ms]", "repeat [ms]", "gain"],
            rows,
        )
    )
    save_results("ablation_amortization", data)
    benchmark.pedantic(lambda: data, rounds=1, iterations=1)
    # Tacho reuses its symbolic phase; SuperLU cannot
    slu_gain = data["superlu"]["first_ms"] / data["superlu"]["amortized_ms"]
    tacho_gain = data["tacho"]["first_ms"] / data["tacho"]["amortized_ms"]
    assert tacho_gain >= slu_gain * 0.9  # both gain; tacho at least comparable
