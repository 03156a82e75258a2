"""CLI entry: ``python -m repro.bench --kernels | --scenarios``."""

from __future__ import annotations

import argparse
import json
import sys


def _run_scenarios(args) -> int:
    from repro.bench.scenarios import run_scenarios

    report = run_scenarios(seed=args.seed, tau=args.tau)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    for row in report["rows"]:
        gate = " [gated]" if row["gated"] else ""
        print(
            f"[scenarios] {row['scenario']:34s}: gdsw "
            f"{row['gdsw']['iterations']:4d} its (nc "
            f"{row['gdsw']['n_coarse']}) vs spectral "
            f"{row['spectral']['iterations']:4d} its (nc "
            f"{row['spectral']['n_coarse']}){gate}",
            file=sys.stderr,
        )
    if report["violations"]:
        for v in report["violations"]:
            print(f"[scenarios] VIOLATION: {v}", file=sys.stderr)
        return 1
    print(
        "[scenarios] all convergence and spectral-vs-GDSW gates hold",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "micro-benchmarks of the numeric core: --kernels (the "
            "de-looped setup kernels against their seed loops, writing "
            "BENCH_kernels.json) or --scenarios (the hard-operator matrix comparing "
            "plain GDSW against the algebraic spectral coarse space, "
            "writing BENCH_scenarios.json)"
        ),
    )
    ap.add_argument(
        "--kernels",
        action="store_true",
        help="run the setup-kernel bench (BENCH_kernels.json)",
    )
    ap.add_argument(
        "--scenarios",
        action="store_true",
        help=(
            "run the scenario matrix: convection-diffusion, anisotropic, "
            "high-contrast, nearly-incompressible elasticity via .mtx "
            "ingestion; gates spectral-vs-GDSW iteration counts "
            "(BENCH_scenarios.json)"
        ),
    )
    ap.add_argument("--out", default=None, help="write the JSON report here")
    ap.add_argument(
        "--nx", type=int, default=48,
        help="box edge length; n = nx^3 rows (default 48 -> 110592)",
    )
    ap.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats for the vectorized kernels (best-of)",
    )
    ap.add_argument(
        "--seed", type=int, default=7,
        help="scenario seed (high-contrast stripe placement)",
    )
    ap.add_argument(
        "--tau", type=float, default=0.12,
        help="spectral eigenvalue threshold for the scenario arms",
    )
    args = ap.parse_args(argv)
    if args.scenarios:
        return _run_scenarios(args)
    if not args.kernels:
        ap.error("select a bench: --kernels or --scenarios")

    from repro.bench.kernel_bench import run_kernel_bench

    report = run_kernel_bench(nx=args.nx, repeats=args.repeats)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    for name, rec in sorted(report["paths"].items()):
        print(
            f"[kernels] {name:18s}: {rec['reference_seconds']:.3e}s -> "
            f"{rec['vectorized_seconds']:.3e}s ({rec['speedup']:.1f}x, "
            f"bit_identical={rec['bit_identical']})",
            file=sys.stderr,
        )
    if report["violations"]:
        for v in report["violations"]:
            print(f"[kernels] VIOLATION: {v}", file=sys.stderr)
        return 1
    print(
        "[kernels] all hot-path speedup/bit-identity gates hold",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
