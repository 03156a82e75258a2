"""Benchmark-session fixtures: results directory and shared caches.

Run with ``pytest benchmarks/ --benchmark-only``.  Every target prints
its table(s) in the paper's layout (use ``-s`` to see them live) and
persists structured rows under ``benchmarks/results/`` for
EXPERIMENTS.md.  Numerics are memoized inside the session, so targets
sharing a sweep (Tables II/III/VI/VII) run the expensive part once.

Set ``REPRO_BENCH_NODES=1,2`` to trim the weak-scaling sweeps.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    out = pathlib.Path(__file__).parent / "results"
    out.mkdir(exist_ok=True)
    return out


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        return super().default(o)


@pytest.fixture(scope="session")
def audit_verdict(results_dir) -> dict:
    """Cost-model audit verdict for the benchmark session.

    Runs :func:`repro.verify.audit_cost_model` once per working
    precision on a small representative run (the modeled communication
    volumes vs what the simulated MPI layer actually shipped) and
    persists the verdict as ``BENCH_verify.json`` so a mispriced kernel
    family is machine-detectable next to the table data it would skew.
    """
    import dataclasses

    from repro.config import SchwarzConfig
    from repro.bench.harness import (
        audit_record,
        rank_grid,
        run_numerics,
        weak_scaled_problem,
    )

    verdict: dict = {"ok": True, "precisions": {}}
    for precision in ("double", "single"):
        rec = run_numerics(
            weak_scaled_problem(1),
            rank_grid(1, 8),
            SchwarzConfig(precision=precision),
            cache_key=("verify-audit", precision),
        )
        audit = audit_record(rec)
        verdict["precisions"][precision] = {
            "ok": audit.ok,
            "flagged": audit.flagged,
            "entries": [dataclasses.asdict(e) for e in audit.entries],
        }
        verdict["ok"] = verdict["ok"] and audit.ok
    path = results_dir / "BENCH_verify.json"
    path.write_text(json.dumps(verdict, indent=1, cls=_Encoder))
    return verdict


@pytest.fixture(scope="session")
def save_results(results_dir, audit_verdict):
    def _save(name: str, data: dict) -> None:
        # tuple keys from experiment dicts are stringified
        def clean(obj):
            if isinstance(obj, dict):
                return {str(k): clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            return obj

        payload = clean(data)
        if isinstance(payload, dict):
            # the audit verdict rides along in every emitted file so a
            # cost-model regression is visible next to the numbers it skews
            payload["cost_model_audit"] = {
                "ok": audit_verdict["ok"],
                "flagged": sorted(
                    {
                        f
                        for p in audit_verdict["precisions"].values()
                        for f in p["flagged"]
                    }
                ),
            }
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, cls=_Encoder))

    return _save
