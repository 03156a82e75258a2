#!/usr/bin/env python
"""Gate: every committed modeled bench regenerates byte-identically.

The modeled-clock benches are deterministic (seeded problems, model
seconds), so a refactor that claims "same outputs" can prove it: each
bench below is rerun with its CI command into a temporary directory and
``cmp``'d against the committed copy in ``benchmarks/results/``.
``BENCH_backend.json`` and ``BENCH_wall.json`` hold wall seconds and are
excluded.

Run: ``python tools/check_bench_results.py [NAME ...]`` from the repo
root (all five take about a minute).  Exit status 1 when a bench
command fails or an output differs.  After an *intended* change of a
bench's numbers, regenerate its committed file with the same command
(``--out benchmarks/results/BENCH_<name>.json``) in the same commit.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"

#: bench name -> module arguments of its CI command (``--out`` appended);
#: the ``bench`` matrix in .github/workflows/ci.yml runs the same lines
BENCHES: Dict[str, List[str]] = {
    "reuse": ["repro.reuse"],
    "serve": ["repro.serve", "--bench"],
    "slo": ["repro.serve", "--overload", "--seed", "0", "--json"],
    "scenarios": ["repro.bench", "--scenarios", "--seed", "7"],
    "elastic": ["repro.elastic", "--seed", "7"],
}


def check(name: str, workdir: Path) -> bool:
    out = workdir / f"BENCH_{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    cmd = [sys.executable, "-m", *BENCHES[name], "--out", str(out)]
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        print(f"FAIL {name}: bench exited {proc.returncode}\n{proc.stderr}")
        return False
    committed = RESULTS / out.name
    if not filecmp.cmp(out, committed, shallow=False):
        print(f"FAIL {name}: {out.name} differs from {committed}")
        return False
    print(f"ok   {name}: {out.name} byte-identical")
    return True


def main(argv: List[str]) -> int:
    names = argv or list(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        print(f"unknown bench {unknown}; valid values: {', '.join(BENCHES)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        ok = [check(name, Path(tmp)) for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
