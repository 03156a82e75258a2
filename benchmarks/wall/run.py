#!/usr/bin/env python3
"""Wall-clock benchmark of the solver stack: one command, four workloads.

    python3 benchmarks/wall/run.py                       # all workloads, both passes
    python3 benchmarks/wall/run.py --workload laplace_superlu --trace 0
    python3 benchmarks/wall/run.py --compare results/seed7.json new.json

See README.md beside this file for the metric and workload definitions.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy loads it: unpinned threads on a
# 2-core box nearly double a multifrontal setup and its run-to-run spread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

import numpy as np
import scipy

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: end-to-end metrics every workload reports: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("time_to_solution_s", "s", "lower"),
    ("refactor_s", "s", "lower"),
    ("drain_rps", "req/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_stack():
    """Import the solver stack and the benchmark modules, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: no solver stack at {src}/repro; nothing to benchmark")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    return workloads, layers


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"value": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def end_to_end_pass(workloads, workload, inp, ops, seconds, samples):
    """Tracing off: cold samples, each metric the median of its quiet samples."""
    sample = lambda warm: workload.sample(inp, ops, check_refactor=warm)  # noqa: E731
    sample(True)  # warm-up, discarded
    rows, cpu_wall_ratio = workloads.repeat(
        lambda: sample(False), seconds, samples, workloads.MIN_SAMPLES
    )
    iterations = sorted({it for _, its in rows for it in its})
    if len(iterations) != 1:
        ops.record(False, f"iterations differ across samples: {iterations}")
    timed = {
        name: [t for phases, _ in rows for t in phases[name]]
        for name in ("setup_s", "solve_s", "time_to_solution_s", "refactor_s")
    }
    series, quiet_frac = workloads.quiet_samples(timed)
    series["drain_rps"] = [workload.requests_per_solve / s for s in series["solve_s"]]
    series["peak_rss_mb"] = [workloads.peak_rss_mb()]
    metrics = {
        name: {**quartiles(series[name]), "unit": unit, "samples": series[name]}
        for name, unit, _ in END_TO_END
    }
    return metrics, {
        "iterations": iterations[0],
        "cpu_wall_ratio": cpu_wall_ratio,
        "quiet_frac": quiet_frac,
        "samples_taken": {name: len(ts) for name, ts in timed.items()},
    }


def per_layer_pass(layers, workload, inp, ops, seconds, cycles):
    """The traced pass: each metric the median over its cycles."""
    values, n = layers.run_cycles(workload, inp, ops, seconds, cycles)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {
        name: {"value": v, "unit": units[name], "n": n} for name, v in values.items()
    }


def run_workload(args) -> int:
    workloads, layers = import_stack()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    WORK.mkdir(exist_ok=True)
    # smoke: two timed samples, one traced cycle
    samples = args.samples or ((1 if args.trace else 2) if args.smoke else None)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inp = workload.prepare(args.seed, args.smoke, pathlib.Path(tmp))
        if args.trace:
            extras = {}
            metrics = per_layer_pass(
                layers, workload, inp, ops, args.seconds, samples
            )
        else:
            metrics, extras = end_to_end_pass(
                workloads, workload, inp, ops, args.seconds, samples
            )
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": environment(), **extras,
        "attempted": ops.attempted, "failed": ops.failed, "reasons": ops.reasons,
        "metrics": metrics,
    }
    print_record(record)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 0 if ops.failed == 0 else 1


def print_record(record: dict) -> None:
    head = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    if "iterations" in record:
        head += (
            f" iterations={record['iterations']}"
            f" cpu_wall_ratio={record['cpu_wall_ratio']:.3f}"
            f" quiet_frac={record['quiet_frac']:.2f}"
        )
    print(f"# {head} ops_attempted={record['attempted']} ops_failed={record['failed']}")
    for why in record["reasons"]:
        print(f"#   FAILED {why}")
    for name, m in record["metrics"].items():
        line = f"{record['workload']:<20} {name:<40} {m['value']:>14.6g} {m['unit']}"
        if "q1" in m:
            line += f"   (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
        print(line)


# ----------------------------------------------------------------------
# all workloads, each pass in a fresh subprocess
# ----------------------------------------------------------------------
def spearman(xs: List[float], ys: List[float]) -> float:
    rank = lambda v: np.argsort(np.argsort(v)).astype(float)  # noqa: E731
    return float(np.corrcoef(rank(xs), rank(ys))[0, 1])


def run_all(args) -> int:
    workloads, _ = import_stack()
    WORK.mkdir(exist_ok=True)
    runset = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in workloads.WORKLOADS:
            passes = {}
            for trace in (0,) if args.no_traced else (0, 1):
                out = pathlib.Path(tmp) / f"{name}.{trace}.json"
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(out),
                ]
                if args.smoke:
                    cmd.append("--smoke")
                if args.samples:
                    cmd += ["--samples", str(args.samples)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                # the child's last line is the driver-facing JSON; the
                # readable table above it is this command's output too
                sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
                sys.stdout.flush()
                status = status or proc.returncode
                if out.exists():
                    passes["per_layer" if trace else "end_to_end"] = json.loads(
                        out.read_text()
                    )
            runset["workloads"][name] = passes
    runset["audit"] = audit(runset)
    print(f"# audit.model_wall_spearman {runset['audit']['model_wall_spearman']}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(runset, indent=1) + "\n")
    return status


def audit(runset: dict) -> dict:
    """Modeled vs measured seconds over the (workload, phase) points.

    Informational: the machine model prices a Summit node, so only the
    *ranking* of the six points is compared with this box's wall clock.
    """
    points = []
    for name, passes in runset["workloads"].items():
        layer = passes.get("per_layer", {}).get("metrics", {})
        wall = passes.get("end_to_end", {}).get("metrics", {})
        for phase in ("setup", "solve"):
            model = layer.get(f"audit.model_{phase}_s", {}).get("value", 0.0)
            if model > 0.0 and f"{phase}_s" in wall:
                points.append({
                    "workload": name, "phase": phase, "model_s": model,
                    "wall_s": wall[f"{phase}_s"]["value"],
                })
    rho = None
    if len(points) >= 3:
        rho = spearman(
            [p["model_s"] for p in points], [p["wall_s"] for p in points]
        )
    return {"model_wall_spearman": rho, "points": points}


# ----------------------------------------------------------------------
# compare two run-sets under the benchmark's own bounds
# ----------------------------------------------------------------------
def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["value"] / base["value"] - 1.0)
    # a run holds one median per metric; how far that median moves from
    # run to run is estimated from its own samples as IQR / sqrt(n)
    spread = max(
        (m["q3"] - m["q1"]) / m["value"] / m["n"] ** 0.5 for m in (base, new)
    )
    if spread > bound:
        # only a clean separation of every sample resolves a noisy pair
        b = [sign * x for x in base["samples"]]
        n = [sign * x for x in new["samples"]]
        if min(n) > max(b):
            return "worse"
        if max(n) < min(b):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within"


def compare(base_path: str, new_path: str) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(pathlib.Path(base_path).read_text())["workloads"]
    new = json.loads(pathlib.Path(new_path).read_text())["workloads"]
    bad = False
    print(f"{'workload':<20} {'metric':<20} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for name in base:
        if name not in new:
            continue
        b_run, n_run = base[name]["end_to_end"], new[name]["end_to_end"]
        for decl in declared["end_to_end"]:
            b, n = b_run["metrics"][decl["name"]], n_run["metrics"][decl["name"]]
            v = verdict(b, n, decl["better"], decl["bound"])
            bad |= v == "worse"
            print(
                f"{name:<20} {decl['name']:<20} {b['value']:>12.6g} "
                f"{n['value']:>12.6g} {n['value'] / b['value']:>9.3f}  {v}"
            )
        for metric, b_val, n_val in (
            ("iterations", b_run["iterations"], n_run["iterations"]),
            ("failed_frac", b_run["failed"] / b_run["attempted"],
             n_run["failed"] / n_run["attempted"]),
        ):
            v = "within" if n_val == b_val else "worse" if n_val > b_val else "better"
            bad |= v == "worse"
            print(f"{name:<20} {metric:<20} {b_val:>12.6g} {n_val:>12.6g} {'':>9}  {v}")
        b_layer = base[name].get("per_layer", {}).get("metrics", {})
        n_layer = new[name].get("per_layer", {}).get("metrics", {})
        for metric, b in b_layer.items():
            n = n_layer.get(metric)
            if n and b["unit"] in ("count", "flop", "B") and b["value"] != n["value"]:
                print(
                    f"{name:<20} {metric:<20} {b['value']:>12.6g} "
                    f"{n['value']:>12.6g} {'':>9}  count changed"
                )
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    declared = ROOT / "BENCHMARK.json"
    seconds = json.loads(declared.read_text())["run_seconds"] if declared.exists() else 20
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=seconds,
                   help="measuring time of one pass of one workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="with --workload: 0 end-to-end pass, 1 per-layer pass")
    p.add_argument("--samples", type=int,
                   help="take exactly N timed samples instead of filling --seconds")
    p.add_argument("--no-traced", action="store_true",
                   help="skip the per-layer pass when running every workload")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, two samples")
    p.add_argument("--out", help="write the full record (JSON) to FILE")
    p.add_argument("--compare", nargs=2, metavar=("BASE.json", "NEW.json"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
