"""Rank-loss chaos matrix: the kill matrix as an executable check.

``python -m repro chaos --suite rank`` sweeps kill-phase
(``setup`` / ``apply`` / ``reduce``) x recovery strategy
(``shrink`` / ``respawn``) over a Laplace and a nearly-incompressible
(``nu = 0.49``) elasticity problem, plus per problem:

* a **control** arm (protection off) that must raise
  :class:`~repro.ft.comm.RankFailedError` -- proving the scheduled
  death is real and the recovery is doing the work, and
* a **fault-free** arm measuring the checkpoint overhead against the
  modeled solve time.

The CI ``chaos-ft`` job writes the document to ``BENCH_ft.json``
(``--out``) and fails when any recovered arm misses the 1e-7
tolerance, any recovered arm needs more than twice the fault-free
iterations, any control arm survives, or the fault-free checkpoint
overhead exceeds 5% of the modeled solve time; each such cell is one
entry of the document's ``violations``.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["run_matrix", "summary"]

_RTOL = 1e-7
#: kill op indexes a few operations into each phase, so setup kills
#: strike after the sequential build and apply/reduce kills strike a
#: few iterations in (checkpoints may or may not exist -- both paths
#: are exercised; recovery must handle either)
_KILL_OPS = {"setup": 2, "apply": 30, "reduce": 10}
_KILL_RANK = 1
#: iteration budget multiplier the recovered arms must stay within
_ITER_FACTOR = 2.0
#: modeled checkpoint overhead budget of the fault-free arm
_OVERHEAD_BUDGET = 0.05


def _problems(which: str):
    from repro.fem import elasticity_3d, laplace_3d

    out = []
    if which in ("laplace", "all"):
        out.append(("laplace", laplace_3d(6)))
    if which in ("elasticity", "all"):
        out.append(("elasticity", elasticity_3d(4, poisson_ratio=0.49)))
    return out


def _session(problem, ft_config):
    from repro.api import KrylovConfig, SolverSession

    return SolverSession(
        problem,
        partition=(2, 2, 1),
        krylov=KrylovConfig(rtol=_RTOL),
        policy=ft_config or None,
    )


def _cell(problem, baseline_iters: int, phase: str, strategy: str,
          seed: int):
    """One protected kill cell; returns a record dict."""
    from repro.ft import FaultToleranceConfig
    from repro.resilience.inject import FaultPlan

    plan = FaultPlan.single(
        "rank_loss", _KILL_RANK, phase=phase,
        occurrence=_KILL_OPS[phase], seed=seed,
    )
    cfg = FaultToleranceConfig(fault_plan=plan, strategy=strategy)
    res = _session(problem, cfg).solve()
    recovered = bool(
        res.converged
        and np.all(np.isfinite(res.x))
        and res.final_relres <= _RTOL * 1.01
    )
    within_budget = res.iterations <= _ITER_FACTOR * baseline_iters
    return {
        "phase": phase,
        "strategy": strategy,
        "ok": recovered and within_budget and res.ft.recoveries >= 1,
        "status": str(res.status),
        "iterations": int(res.iterations),
        "baseline_iterations": int(baseline_iters),
        "final_relres": float(res.final_relres),
        "recoveries": int(res.ft.recoveries),
        "failures": len(res.ft.failures),
        "checkpoints": int(res.ft.checkpoints),
        "lost_segments": res.ft.lost_segments,
        "n_ranks_final": int(res.n_ranks),
        "actions": [
            {"kind": act.kind, "rank": act.rank, "detail": act.detail}
            for act in (res.health.actions if res.health else [])
        ],
    }


def _control_cell(problem, seed: int):
    """Protection off: the death must take the solve down."""
    from repro.ft import FaultToleranceConfig, RankFailedError
    from repro.resilience.inject import FaultPlan

    plan = FaultPlan.single(
        "rank_loss", _KILL_RANK, phase="apply",
        occurrence=_KILL_OPS["apply"], seed=seed,
    )
    cfg = FaultToleranceConfig(fault_plan=plan, protect=False)
    try:
        res = _session(problem, cfg).solve()
    except RankFailedError as err:
        return {
            "phase": "apply", "strategy": "none", "arm": "control",
            "ok": True, "detail": f"raised RankFailedError: {err}",
        }
    return {
        "phase": "apply", "strategy": "none", "arm": "control",
        "ok": False,
        "detail": "unguarded run survived a rank death: "
                  f"status={res.status} relres={res.final_relres:.2e}",
    }


def _fault_free_cell(problem, baseline):
    """Protected but fault-free: bit-identity + checkpoint overhead."""
    from repro.ft import FaultToleranceConfig
    from repro.runtime.layout import JobLayout

    res = _session(problem, FaultToleranceConfig()).solve()
    identical = bool(
        np.array_equal(res.x, baseline.x)
        and res.iterations == baseline.iterations
        and res.reduces == baseline.reduces
    )
    layout = JobLayout.cpu_run(1, ranks_per_node=res.n_ranks)
    modeled = res.timings(layout).total_seconds
    ckpt = res.ft.modeled_checkpoint_seconds(layout)
    overhead = ckpt / max(modeled, 1e-300)
    return {
        "arm": "fault_free",
        "ok": identical and overhead <= _OVERHEAD_BUDGET,
        "bit_identical": identical,
        "checkpoints": int(res.ft.checkpoints),
        "checkpoint_doubles": int(res.ft.checkpoint_doubles),
        "modeled_solve_seconds": float(modeled),
        "modeled_checkpoint_seconds": float(ckpt),
        "checkpoint_overhead": float(overhead),
        "overhead_budget": _OVERHEAD_BUDGET,
    }


def _line(pname: str, rec: dict) -> str:
    """The human line of one cell record."""
    mark = "ok " if rec["ok"] else "BAD"
    if "arm" not in rec:
        return (
            f"[{mark}] {pname:<10} kill@{rec['phase']:<6} "
            f"{rec['strategy']:<7} status={rec['status']} "
            f"iters={rec['iterations']}/{rec['baseline_iterations']} "
            f"relres={rec['final_relres']:.2e}"
        )
    detail = rec.get("detail") or (
        f"overhead={rec['checkpoint_overhead']:.2%} "
        f"bit_identical={rec['bit_identical']}"
    )
    return f"[{mark}] {pname:<10} {rec['arm']:<16} {detail}"


def run_matrix(problem: str = "all", seed: int = 7) -> dict:
    """Run the kill matrix; returns the BENCH_ft document."""
    from repro.resilience.inject import PHASES

    doc = {"seed": int(seed), "rtol": _RTOL, "problems": {}}
    violations: List[str] = []
    for pname, prob in _problems(problem):
        baseline = _session(prob, False).solve()
        cells = [
            _cell(prob, baseline.iterations, phase, strategy, seed)
            for phase in PHASES
            for strategy in ("shrink", "respawn")
        ]
        cells.append(_control_cell(prob, seed))
        cells.append(_fault_free_cell(prob, baseline))
        violations.extend(_line(pname, c) for c in cells if not c["ok"])
        doc["problems"][pname] = {
            "baseline_iterations": int(baseline.iterations),
            "cells": cells,
        }
    doc["violations"] = violations
    return doc


def summary(doc: dict) -> List[str]:
    """One line per cell."""
    return [
        _line(pname, c)
        for pname, rec in doc["problems"].items()
        for c in rec["cells"]
    ]
