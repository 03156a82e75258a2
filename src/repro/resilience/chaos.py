"""Chaos matrix: every preconditioner fault kind as an executable check.

``python -m repro chaos --suite precond`` runs every fault kind of
:data:`~repro.resilience.inject.FAULT_KINDS` against a Laplace and an
elasticity problem, each under two arms:

* **resilient** -- ``protect=True``, detection and recovery on: the
  solve must reach the session tolerance (``status`` ``converged`` or
  ``recovered``);
* **control** -- the same faults with ``protect=False``: the
  solve must demonstrably fail (non-converged residual or a raised
  breakdown), proving the injected fault is real and the recovery is
  doing the work.

The seeds are fixed, so the matrix is deterministic; the CI ``chaos``
job runs it and fails on any unrecovered (or unexpectedly healthy)
cell, each of which is one entry of the document's ``violations``.
"""

from __future__ import annotations

import warnings
from typing import List

import numpy as np

__all__ = ["run_matrix", "summary"]

#: per-kind rank the fault lands on (subdomain 1 exists in every 2x2x2 box)
_FAULT_RANK = 1
_RTOL = 1e-7


def _problems(which: str):
    from repro.fem import elasticity_3d, laplace_3d

    out = []
    if which in ("laplace", "all"):
        out.append(("laplace", laplace_3d(8)))
    if which in ("elasticity", "all"):
        out.append(("elasticity", elasticity_3d(6)))
    return out


def _config_for(kind: str):
    from repro.api import SchwarzConfig
    from repro.dd.local_solvers import LocalSolverSpec

    if kind == "fastilu_divergence":
        return SchwarzConfig(local=LocalSolverSpec(kind="fastilu"))
    if kind == "precision_overflow":
        return SchwarzConfig(precision="single")
    return SchwarzConfig()


def _run_cell(problem, kind: str, resilient: bool, seed: int, maxiter: int):
    """One chaos cell; returns (ok, detail)."""
    from repro.api import KrylovConfig, SolverSession
    from repro.resilience.detect import BREAKDOWN_EXCEPTIONS
    from repro.resilience.engine import ResilienceConfig
    from repro.resilience.inject import FaultPlan

    plan = FaultPlan.single(kind, rank=_FAULT_RANK, seed=seed)
    cfg = ResilienceConfig(fault_plan=plan, protect=resilient)
    session = SolverSession(
        problem,
        partition=(2, 2, 2),
        config=_config_for(kind),
        krylov=KrylovConfig(rtol=_RTOL, maxiter=maxiter),
        policy=cfg,
    )
    try:
        with warnings.catch_warnings():
            # the control arm intentionally floods the solve with
            # inf/NaN; numpy's invalid-value warnings are the point
            warnings.simplefilter("ignore")
            res = session.solve()
    except BREAKDOWN_EXCEPTIONS as err:
        if resilient:
            return False, f"raised {type(err).__name__}: {err}"
        return True, f"raised {type(err).__name__} (fault is real)"
    healthy = bool(
        res.converged
        and np.all(np.isfinite(res.x))
        and res.final_relres <= _RTOL * 1.01
    )
    detail = f"status={res.status} iters={res.iterations} " \
             f"relres={res.final_relres:.2e}"
    if resilient:
        if not healthy:
            return False, "did not recover: " + detail
        actions = len(res.health.actions) if res.health else 0
        return True, detail + f" actions={actions}"
    if healthy:
        return False, "control arm unexpectedly healthy: " + detail
    return True, "fails as expected: " + detail


def run_matrix(problem: str = "all", seed: int = 7, maxiter: int = 1000,
               control_maxiter: int = 150) -> dict:
    """Run the full fault matrix; returns the chaos document.

    One record per cell under ``cells``; every misbehaving cell is also
    one line of ``violations``.
    """
    from repro.resilience.inject import FAULT_KINDS

    cells = []
    violations: List[str] = []
    for pname, prob in _problems(problem):
        for kind in FAULT_KINDS:
            for resilient in (True, False):
                arm = "resilient" if resilient else "control"
                ok, detail = _run_cell(
                    prob, kind, resilient, seed,
                    maxiter if resilient else control_maxiter,
                )
                cells.append({
                    "problem": pname,
                    "fault": kind,
                    "arm": arm,
                    "ok": bool(ok),
                    "detail": detail,
                    "seed": int(seed),
                })
                if not ok:
                    violations.append(f"{pname} {kind} {arm}: {detail}")
    return {"seed": int(seed), "cells": cells, "violations": violations}


def summary(doc: dict) -> List[str]:
    """One line per cell."""
    return [
        f"[{'ok ' if c['ok'] else 'BAD'}] {c['problem']:<10} "
        f"{c['fault']:<20} {c['arm']:<9} {c['detail']}"
        for c in doc["cells"]
    ]
