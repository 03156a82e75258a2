"""The verification suite as one runner: ``python -m repro verify``.

Runs the full invariant suite -- algebraic invariants, the
sequential-vs-distributed diff, and the cost-model audit -- on the
quickstart problems (Laplace and elasticity) in both working
precisions.  A configuration that fails a check or does not converge
is one entry of the document's ``violations``.  This is the ``verify``
job of ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.api import KrylovConfig, SchwarzConfig, SolverSession
from repro.fem import elasticity_3d, laplace_3d
from repro.verify.invariants import VerifyConfig

__all__ = ["PRECISIONS", "PROBLEMS", "run_verify", "summary"]

PROBLEMS = {
    "laplace": lambda: laplace_3d(6),
    "elasticity": lambda: elasticity_3d(4),
}
PRECISIONS = ("double", "single")


def run_verify(problem: str = "all",
               precisions: Sequence[str] = PRECISIONS,
               diff: bool = True) -> dict:
    """Run the suite on ``problem`` (or ``"all"``) in each precision."""
    names = list(PROBLEMS) if problem == "all" else [problem]
    config = VerifyConfig(
        strict=False, diff_distributed=diff, audit_cost_model=True
    )
    configs = []
    violations: List[str] = []
    for name in names:
        for precision in precisions:
            result = SolverSession(
                PROBLEMS[name](),
                partition=(2, 2, 2),
                config=SchwarzConfig(precision=precision),
                krylov=KrylovConfig(),
                verify=config,
            ).solve()
            report = result.verification
            ok = bool(report.ok and result.converged)
            configs.append({
                "problem": name,
                "precision": precision,
                "ok": ok,
                "iterations": int(result.iterations),
                "report": report.summary(),
            })
            if not ok:
                violations.append(f"{name} / {precision}: FAIL")
    return {"configs": configs, "violations": violations}


def summary(doc: dict) -> List[str]:
    """A status line and the check report per configuration."""
    lines = []
    for c in doc["configs"]:
        status = "PASS" if c["ok"] else "FAIL"
        lines.append(f"== {c['problem']} / {c['precision']}: {status} "
                     f"({c['iterations']} iterations)")
        lines.extend(c["report"].splitlines())
    return lines
