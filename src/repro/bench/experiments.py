"""Generators for every table and figure of the paper's evaluation.

Each ``tableN_*``/``figN_*`` function runs (memoized) numerics, prices
them under the relevant layouts, prints the table in the paper's layout
and returns structured row data that the benchmark targets persist for
EXPERIMENTS.md.

Scaled geometry (see DESIGN.md): the model node is 8 cores + 2 GPUs;
MPS factors 1/2/4 play the paper's 1..7, with 4 ranks/GPU recovering
the CPU decomposition exactly as the paper's 7 does.  Node counts and
element scales are trimmed relative to Summit but keep each rank's
subdomain in a regime where the local solver cost is superlinear.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple


from repro.bench.harness import (
    NumericsRecord,
    model_machine,
    price_run,
    rank_grid,
    run_numerics,
    strong_scaled_problem,
    weak_scaled_problem,
)
from repro.bench.tables import format_cell, format_table
from repro.dd.local_solvers import LocalSolverSpec
from repro.config import SchwarzConfig
from repro.runtime.layout import JobLayout

__all__ = [
    "WEAK_NODES",
    "table2_weak_solve",
    "table3_weak_setup",
    "fig4_setup_breakdown",
    "fig5_strong_scaling",
    "table4_ilu_study",
    "table5_ilu_weak",
    "table6_precision_setup",
    "table7_precision_solve",
]

#: node counts of the weak-scaling sweeps (paper: 1..16; scaled: 1..8)
WEAK_NODES: Tuple[int, ...] = tuple(
    int(x) for x in os.environ.get("REPRO_BENCH_NODES", "1,2,4,8").split(",")
)
#: MPS factors swept in the GPU rows (paper: 1,2,4,6,7; scaled: 1,2,4)
MPS_FACTORS: Tuple[int, ...] = (1, 2, 4)
_E_WEAK = 8  # elements per node axis for the direct-solver tables
_E_ILU = 10  # larger per-node problems for the ILU study (Section VIII-B)
_MACHINE = model_machine()


def _weak_records(
    solver: str, precision: str = "double", nodes: Sequence[int] = WEAK_NODES
) -> Dict[Tuple[int, str], NumericsRecord]:
    """Numerics for one weak-scaling sweep: CPU row + every MPS row."""
    out: Dict[Tuple[int, str], NumericsRecord] = {}
    for nd in nodes:
        prob = weak_scaled_problem(nd, _E_WEAK)
        key = ("weak", nd, _E_WEAK)
        cfg_cpu = SchwarzConfig(
            local=LocalSolverSpec(kind=solver, ordering="nd", gpu_solve=False),
            precision=precision,
        )
        out[(nd, "cpu")] = run_numerics(prob, rank_grid(nd, 8), cfg_cpu, cache_key=key)
        cfg_gpu = SchwarzConfig(
            local=LocalSolverSpec(kind=solver, ordering="nd", gpu_solve=True),
            precision=precision,
        )
        for k in MPS_FACTORS:
            out[(nd, f"gpu{k}")] = run_numerics(
                prob, rank_grid(nd, 2 * k), cfg_gpu, cache_key=key
            )
    return out


def _weak_table(
    solver: str,
    value: str,
    title: str,
    with_iters: bool,
    precision: str = "double",
    speedup_label: str = "speedup",
    invert_speedup: bool = False,
) -> dict:
    """Assemble one Table II/III style table (CPU row + MPS sweep)."""
    recs = _weak_records(solver, precision=precision)
    nodes = list(WEAK_NODES)
    header = ["# comp. nodes"] + [str(n) for n in nodes]
    rows: List[List[str]] = []
    sizes = ["matrix size"] + [str(recs[(n, "cpu")].n) for n in nodes]
    rows.append(sizes)

    data: Dict[str, List[float]] = {}
    iters: Dict[str, List[int]] = {}

    def collect(tag: str, layout_of) -> None:
        vals, its = [], []
        for n in nodes:
            rec = recs[(n, tag)]
            t = price_run(rec, layout_of(n))
            vals.append(getattr(t, value))
            its.append(t.iterations)
        data[tag] = vals
        iters[tag] = its

    collect("cpu", lambda n: JobLayout.cpu_run(n, machine=_MACHINE))
    for k in MPS_FACTORS:
        collect(f"gpu{k}", lambda n, k=k: JobLayout.gpu_run(n, k, machine=_MACHINE))

    rows.append(
        ["CPU"]
        + [
            format_cell(1e3 * v, iters["cpu"][i] if with_iters else None)
            for i, v in enumerate(data["cpu"])
        ]
    )
    for k in MPS_FACTORS:
        tag = f"gpu{k}"
        rows.append(
            [f"GPU n_p/gpu={k}"]
            + [
                format_cell(1e3 * v, iters[tag][i] if with_iters else None)
                for i, v in enumerate(data[tag])
            ]
        )
    best_gpu = [min(data[f"gpu{k}"][i] for k in MPS_FACTORS) for i in range(len(nodes))]
    ratios = [
        (g / c if invert_speedup else c / g)
        for c, g in zip(data["cpu"], best_gpu)
    ]
    rows.append([speedup_label] + [f"{r:.1f}x" for r in ratios])
    print()
    print(format_table(title, header, rows))
    return {
        "nodes": nodes,
        "sizes": [recs[(n, "cpu")].n for n in nodes],
        "data": data,
        "iterations": iters,
        "speedup": ratios,
    }


# ----------------------------------------------------------------------
# Table II: weak-scaling total iteration time
# ----------------------------------------------------------------------
def table2_weak_solve() -> dict:
    """Table II: total iteration time (iters), SuperLU and Tacho."""
    out = {}
    for solver in ("superlu", "tacho"):
        out[solver] = _weak_table(
            solver,
            "solve_seconds",
            f"Table II ({solver}): total iteration time [model ms] (iterations)",
            with_iters=True,
        )
    return out


# ----------------------------------------------------------------------
# Table III: weak-scaling numerical setup time
# ----------------------------------------------------------------------
def table3_weak_setup() -> dict:
    """Table III: numerical setup time, SuperLU and Tacho."""
    out = {}
    for solver in ("superlu", "tacho"):
        out[solver] = _weak_table(
            solver,
            "setup_seconds",
            f"Table III ({solver}): numerical setup time [model ms]",
            with_iters=False,
            speedup_label="slowdown",
            invert_speedup=True,
        )
    return out


# ----------------------------------------------------------------------
# Fig. 4: setup-time breakdown on one node
# ----------------------------------------------------------------------
def fig4_setup_breakdown() -> dict:
    """Fig. 4: per-family numerical-setup breakdown on one node."""
    prob = weak_scaled_problem(1, _E_WEAK)
    key = ("weak", 1, _E_WEAK)
    out = {}
    for solver in ("superlu", "tacho"):
        for tag, gpu in (("cpu", False), ("gpu", True)):
            cfg = SchwarzConfig(
                local=LocalSolverSpec(kind=solver, ordering="nd", gpu_solve=gpu)
            )
            rec = run_numerics(prob, rank_grid(1, 8), cfg, cache_key=key)
            layout = (
                JobLayout.gpu_run(1, 4, machine=_MACHINE)
                if gpu
                else JobLayout.cpu_run(1, machine=_MACHINE)
            )
            t = price_run(rec, layout)
            out[(solver, tag)] = t.setup_breakdown
    families = sorted({f for d in out.values() for f in d})
    header = ["config"] + families + ["total"]
    rows = []
    for (solver, tag), d in out.items():
        row = [f"{solver}/{tag}"]
        row += [f"{1e3 * d.get(f, 0.0):.2f}" for f in families]
        row += [f"{1e3 * sum(d.values()):.2f}"]
        rows.append(row)
    print()
    print(
        format_table(
            "Fig. 4: numerical setup breakdown on one node [model ms]",
            header,
            rows,
        )
    )
    return {"breakdowns": {f"{s}/{t}": d for (s, t), d in out.items()}}


# ----------------------------------------------------------------------
# Fig. 5: strong scaling
# ----------------------------------------------------------------------
def fig5_strong_scaling(nodes: Sequence[int] = WEAK_NODES) -> dict:
    """Fig. 5: strong scaling of setup and solve (Tacho).

    Four series like the paper: CPU and GPU at full rank counts
    (8/node), and at reduced rank counts (2/node; CPU ranks then drive
    4 threads each -- the paper's 6-rank + 7-thread ESSL configuration).
    """
    prob = strong_scaled_problem(12)
    key = ("strong", 12)
    series: Dict[str, Dict[str, List[float]]] = {}
    for tag, rpn, gpu in (
        ("cpu 8/node", 8, False),
        ("cpu 2/node", 2, False),
        ("gpu 4/gpu", 8, True),
        ("gpu 1/gpu", 2, True),
    ):
        setup, solve, iters = [], [], []
        for nd in nodes:
            cfg = SchwarzConfig(
                local=LocalSolverSpec(kind="tacho", ordering="nd", gpu_solve=gpu)
            )
            rec = run_numerics(prob, rank_grid(nd, rpn), cfg, cache_key=key)
            if gpu:
                layout = JobLayout.gpu_run(nd, rpn // 2, machine=_MACHINE)
            else:
                layout = JobLayout.cpu_run(nd, machine=_MACHINE, ranks_per_node=rpn)
            t = price_run(rec, layout)
            setup.append(t.setup_seconds)
            solve.append(t.solve_seconds)
            iters.append(t.iterations)
        series[tag] = {"setup": setup, "solve": solve, "iters": iters}
    header = ["series"] + [f"{n} nodes" for n in nodes]
    rows = []
    for tag, d in series.items():
        rows.append(
            [f"{tag} setup"] + [f"{v:.4f}" for v in d["setup"]]
        )
        rows.append(
            [f"{tag} solve"]
            + [
                format_cell(v, it, digits=4)
                for v, it in zip(d["solve"], d["iters"])
            ]
        )
    print()
    print(
        format_table(
            f"Fig. 5: strong scaling, 3D elasticity n={prob.a.n_rows} [model s]",
            header,
            rows,
        )
    )
    return {"nodes": list(nodes), "n": prob.a.n_rows, "series": series}


# ----------------------------------------------------------------------
# Table IV: ILU level study on one node
# ----------------------------------------------------------------------
def table4_ilu_study(levels: Sequence[int] = (0, 1, 2, 3)) -> dict:
    """Table IV: ILU(k) setup/solve across fill levels and orderings."""
    prob = weak_scaled_problem(1, _E_ILU)
    key = ("weak", 1, _E_ILU)
    lay_c = JobLayout.cpu_run(1, machine=_MACHINE)
    lay_g = JobLayout.gpu_run(1, 4, machine=_MACHINE)
    parts = rank_grid(1, 8)

    setup: Dict[str, List[float]] = {}
    solve: Dict[str, List[float]] = {}
    iters: Dict[str, List[int]] = {}
    rows_spec = [
        ("CPU (No)", "iluk", "natural", lay_c),
        ("CPU (ND)", "iluk", "nd", lay_c),
        ("GPU KK(No)", "iluk", "natural", lay_g),
        ("GPU KK(ND)", "iluk", "nd", lay_g),
        ("GPU Fast(No)", "fastilu", "natural", lay_g),
        ("GPU Fast(ND)", "fastilu", "nd", lay_g),
    ]
    for tag, kind, ordering, lay in rows_spec:
        s_row, t_row, i_row = [], [], []
        for lev in levels:
            cfg = SchwarzConfig(
                local=LocalSolverSpec(
                    kind=kind, ordering=ordering, ilu_level=lev,
                    gpu_solve=lay is lay_g,
                )
            )
            rec = run_numerics(prob, parts, cfg, cache_key=key)
            t = price_run(rec, lay)
            s_row.append(t.setup_seconds)
            t_row.append(t.solve_seconds)
            i_row.append(t.iterations)
        setup[tag], solve[tag], iters[tag] = s_row, t_row, i_row

    header = ["ILU level"] + [str(lv) for lv in levels]
    setup_rows = [
        [tag] + [f"{1e3 * v:.2f}" for v in setup[tag]] for tag, *_ in rows_spec
    ]
    cpu_best = [min(setup["CPU (No)"][i], setup["CPU (ND)"][i]) for i in range(len(levels))]
    gpu_best = [
        min(setup[t][i] for t in ("GPU KK(No)", "GPU KK(ND)", "GPU Fast(No)", "GPU Fast(ND)"))
        for i in range(len(levels))
    ]
    setup_rows.append(
        ["speedup"] + [f"{c / g:.1f}x" for c, g in zip(cpu_best, gpu_best)]
    )
    print()
    print(
        format_table(
            f"Table IV(a): ILU setup time on one node, n={prob.a.n_rows} [model ms]",
            header,
            setup_rows,
        )
    )
    solve_rows = [
        [tag]
        + [
            format_cell(1e3 * v, it)
            for v, it in zip(solve[tag], iters[tag])
        ]
        for tag, *_ in rows_spec
    ]
    cpu_best = [min(solve["CPU (No)"][i], solve["CPU (ND)"][i]) for i in range(len(levels))]
    gpu_best = [
        min(solve[t][i] for t in ("GPU Fast(No)", "GPU Fast(ND)"))
        for i in range(len(levels))
    ]
    solve_rows.append(
        ["speedup"] + [f"{c / g:.1f}x" for c, g in zip(cpu_best, gpu_best)]
    )
    print()
    print(
        format_table(
            "Table IV(b): ILU solve time [model ms] (iterations)",
            header,
            solve_rows,
        )
    )
    return {
        "levels": list(levels),
        "n": prob.a.n_rows,
        "setup": setup,
        "solve": solve,
        "iterations": iters,
    }


# ----------------------------------------------------------------------
# Table V: weak scaling with ILU(1)
# ----------------------------------------------------------------------
def table5_ilu_weak(nodes: Sequence[int] = WEAK_NODES) -> dict:
    """Table V: weak scaling with the inexact ILU(1) local solver."""
    setup: Dict[str, List[float]] = {"CPU": [], "GPU KK": [], "GPU Fast": []}
    solve: Dict[str, List[float]] = {"CPU": [], "GPU KK": [], "GPU Fast": []}
    iters: Dict[str, List[int]] = {"CPU": [], "GPU KK": [], "GPU Fast": []}
    sizes: List[int] = []
    for nd in nodes:
        prob = weak_scaled_problem(nd, _E_ILU)
        key = ("weak", nd, _E_ILU)
        parts = rank_grid(nd, 8)
        lay_c = JobLayout.cpu_run(nd, machine=_MACHINE)
        lay_g = JobLayout.gpu_run(nd, 4, machine=_MACHINE)
        sizes.append(prob.a.n_rows)
        cfg_ilu = SchwarzConfig(
            local=LocalSolverSpec(kind="iluk", ordering="natural", ilu_level=1)
        )
        rec = run_numerics(prob, parts, cfg_ilu, cache_key=key)
        for tag, lay in (("CPU", lay_c), ("GPU KK", lay_g)):
            t = price_run(rec, lay)
            setup[tag].append(t.setup_seconds)
            solve[tag].append(t.solve_seconds)
            iters[tag].append(t.iterations)
        cfg_fast = SchwarzConfig(
            local=LocalSolverSpec(
                kind="fastilu", ordering="natural", ilu_level=1, gpu_solve=True
            )
        )
        rec = run_numerics(prob, parts, cfg_fast, cache_key=key)
        t = price_run(rec, lay_g)
        setup["GPU Fast"].append(t.setup_seconds)
        solve["GPU Fast"].append(t.solve_seconds)
        iters["GPU Fast"].append(t.iterations)

    header = ["# comp. nodes"] + [str(n) for n in nodes]
    srows = [["matrix size"] + [str(s) for s in sizes]]
    for tag in ("CPU", "GPU KK", "GPU Fast"):
        srows.append([tag] + [f"{1e3 * v:.2f}" for v in setup[tag]])
    srows.append(
        ["speedup"]
        + [
            f"{c / min(k, f):.1f}x"
            for c, k, f in zip(setup["CPU"], setup["GPU KK"], setup["GPU Fast"])
        ]
    )
    print()
    print(format_table("Table V(a): ILU(1) weak-scaling setup [model ms]", header, srows))
    vrows = [["matrix size"] + [str(s) for s in sizes]]
    for tag in ("CPU", "GPU KK", "GPU Fast"):
        vrows.append(
            [tag]
            + [
                format_cell(1e3 * v, it)
                for v, it in zip(solve[tag], iters[tag])
            ]
        )
    vrows.append(
        ["speedup"]
        + [f"{c / f:.1f}x" for c, f in zip(solve["CPU"], solve["GPU Fast"])]
    )
    print()
    print(
        format_table(
            "Table V(b): ILU(1) weak-scaling solve [model ms] (iterations)",
            header,
            vrows,
        )
    )
    return {
        "nodes": list(nodes),
        "sizes": sizes,
        "setup": setup,
        "solve": solve,
        "iterations": iters,
    }


# ----------------------------------------------------------------------
# Tables VI/VII: single vs double precision
# ----------------------------------------------------------------------
def _precision_table(value: str, title_fmt: str, with_iters: bool) -> dict:
    out = {}
    for solver in ("superlu", "tacho"):
        table: Dict[str, List[float]] = {}
        titers: Dict[str, List[int]] = {}
        sizes: List[int] = []
        for tag, gpu in (("CPU", False), ("GPU", True)):
            for precision in ("double", "single"):
                vals, its = [], []
                for nd in WEAK_NODES:
                    prob = weak_scaled_problem(nd, _E_WEAK)
                    key = ("weak", nd, _E_WEAK)
                    cfg = SchwarzConfig(
                        local=LocalSolverSpec(
                            kind=solver, ordering="nd", gpu_solve=gpu
                        ),
                        precision=precision,
                    )
                    rec = run_numerics(prob, rank_grid(nd, 8), cfg, cache_key=key)
                    layout = (
                        JobLayout.gpu_run(nd, 4, machine=_MACHINE)
                        if gpu
                        else JobLayout.cpu_run(nd, machine=_MACHINE)
                    )
                    t = price_run(rec, layout)
                    vals.append(getattr(t, value))
                    its.append(t.iterations)
                    if tag == "CPU" and precision == "double":
                        sizes.append(rec.n)
                table[f"{tag} {precision}"] = vals
                titers[f"{tag} {precision}"] = its
        header = ["# comp. nodes"] + [str(n) for n in WEAK_NODES]
        rows = [["matrix size"] + [str(s) for s in sizes]]
        for tag in ("CPU", "GPU"):
            for precision in ("double", "single"):
                k = f"{tag} {precision}"
                rows.append(
                    [k]
                    + [
                        format_cell(
                            1e3 * v, titers[k][i] if with_iters else None
                        )
                        for i, v in enumerate(table[k])
                    ]
                )
            rows.append(
                [f"{tag} speedup"]
                + [
                    f"{d / s:.1f}x"
                    for d, s in zip(table[f"{tag} double"], table[f"{tag} single"])
                ]
            )
        print()
        print(format_table(title_fmt.format(solver=solver), header, rows))
        out[solver] = {"data": table, "iterations": titers, "sizes": sizes}
    return out


def table6_precision_setup() -> dict:
    """Table VI: numerical setup time, double vs single precision."""
    return _precision_table(
        "setup_seconds",
        "Table VI ({solver}): setup time double vs single precision [model ms]",
        with_iters=False,
    )


def table7_precision_solve() -> dict:
    """Table VII: total iteration time, double vs single precision."""
    return _precision_table(
        "solve_seconds",
        "Table VII ({solver}): iteration time double vs single [model ms] (iters)",
        with_iters=True,
    )
