"""The one command line: ``python -m repro <subcommand>``.

Every subcommand runs one suite -- a ``run_*(...) -> dict`` runner whose
document carries a ``violations`` list -- and emits it the same way:

* human lines (the suite's ``summary(doc)`` and each violation) go to
  stderr;
* ``--json`` prints the document on stdout, and nothing else goes there;
* ``--out PATH`` writes the document to ``PATH``; nothing is written
  without it;
* the exit status is 1 exactly when ``violations`` is non-empty.

Subcommands: ``verify``, ``kernels``, ``scenarios``, ``reuse``, ``serve``
and ``chaos --suite {precond,rank,straggler,overload}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import List, Optional, Sequence

#: suite -> (runner module, runner function, runner keywords from the flags)
SUITES = {
    "verify": ("repro.verify.suite", "run_verify",
               ("problem", "precisions", "diff")),
    "kernels": ("repro.bench.kernel_bench", "run_kernel_bench", ()),
    "scenarios": ("repro.bench.scenarios", "run_scenarios", ("seed",)),
    "reuse": ("repro.reuse.bench", "run_reuse_bench", ()),
    "serve": ("repro.serve.bench", "run_serve_bench", ("seed",)),
    "precond": ("repro.resilience.chaos", "run_matrix", ("problem", "seed")),
    "rank": ("repro.ft.chaos", "run_matrix", ("problem", "seed")),
    "straggler": ("repro.elastic.bench", "run_elastic_bench", ("seed",)),
    "overload": ("repro.serve.overload", "run_overload_bench", ("seed",)),
}
CHAOS_SUITES = ("precond", "rank", "straggler", "overload")

_HELP = {
    "verify": "numerical-invariant suite on the quickstart problems",
    "kernels": "de-looped setup kernels against their seed loops "
               "(BENCH_kernels.json)",
    "scenarios": "hard-operator matrix, GDSW vs the spectral coarse space "
                 "(BENCH_scenarios.json)",
    "reuse": "k-solve amortized-setup bench (BENCH_reuse.json)",
    "serve": "multi-tenant serving sweep (BENCH_serve.json)",
    "chaos": "fault matrices: precond (preconditioner faults), rank "
             "(rank loss, BENCH_ft.json), straggler (elastic scaling, "
             "BENCH_elastic.json), overload (guarded serving, "
             "BENCH_slo.json)",
}


def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=7,
                        help="seed of the seeded suites (default: 7)")
    shared.add_argument("--json", action="store_true",
                        help="print the JSON document on stdout")
    shared.add_argument("--out", default=None,
                        help="write the JSON document to this path")
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--problem", default=None,
                         choices=("laplace", "elasticity", "all"),
                         help="problem family (default: all)")

    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description="run one verification suite, benchmark or chaos matrix",
    )
    ap.set_defaults(problem=None)
    sub = ap.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", parents=[shared, problem],
                            help=_HELP["verify"])
    verify.add_argument("--precisions", default="double,single",
                        help="comma-separated subset of: double, single")
    verify.add_argument("--no-diff", action="store_true",
                        help="skip the sequential-vs-distributed diff")
    for name in ("kernels", "scenarios", "reuse", "serve"):
        sub.add_parser(name, parents=[shared], help=_HELP[name])
    chaos = sub.add_parser("chaos", parents=[shared, problem],
                           help=_HELP["chaos"])
    chaos.add_argument("--suite", required=True, choices=CHAOS_SUITES)
    return ap


def _options(args: argparse.Namespace) -> dict:
    """Every runner keyword the flags can supply."""
    options = {"seed": args.seed, "problem": args.problem or "all"}
    if args.command == "verify":
        options["precisions"] = tuple(
            p.strip() for p in args.precisions.split(",")
        )
        options["diff"] = not args.no_diff
    return options


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    name = args.suite if args.command == "chaos" else args.command
    module_name, runner, keys = SUITES[name]
    if args.problem is not None and "problem" not in keys:
        ap.error(f"--problem does not apply to the {name} suite")
    module = importlib.import_module(module_name)
    options = _options(args)
    doc = getattr(module, runner)(**{k: options[k] for k in keys})

    human: List[str] = list(module.summary(doc))
    human += [f"VIOLATION: {v}" for v in doc["violations"]]
    if not doc["violations"]:
        human.append("no violations")
    for line in human:
        print(f"[{name}] {line}", file=sys.stderr)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    return 1 if doc["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
