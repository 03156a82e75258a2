"""``python -m repro``: one CLI, one emit path, shared flags.

Runners are replaced by stubs returning a fixed document, so these
tests exercise only the command line: parsing, where each output goes,
and the exit status.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.__main__ import CHAOS_SUITES, SUITES, main

REPO_ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ("verify", "kernels", "scenarios", "reuse", "serve", "chaos")


def _argv(suite):
    if suite in CHAOS_SUITES:
        return ["chaos", "--suite", suite]
    return [suite]


@pytest.fixture()
def stub(monkeypatch):
    """Replace every runner; records each call as (suite, kwargs)."""
    stub = SimpleNamespace(calls=[], doc={"violations": [], "answer": 42})

    for suite, (module_name, runner, _) in SUITES.items():
        module = importlib.import_module(module_name)

        def fake(_suite=suite, **kwargs):
            stub.calls.append((_suite, kwargs))
            return json.loads(json.dumps(stub.doc))

        monkeypatch.setattr(module, runner, fake)
        monkeypatch.setattr(module, "summary", lambda d: ["stub line"])
    return stub


def test_help_lists_the_six_subcommands():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert "{" + ",".join(SUBCOMMANDS) + "}" in proc.stdout


def test_chaos_offers_exactly_four_suites(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    assert "{precond,rank,straggler,overload}" in capsys.readouterr().out
    assert CHAOS_SUITES == ("precond", "rank", "straggler", "overload")
    assert set(SUITES) == set(SUBCOMMANDS) - {"chaos"} | set(CHAOS_SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_json_stdout_is_pure_json(suite, stub, capsys):
    assert main(_argv(suite) + ["--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == stub.doc
    assert f"[{suite}] stub line" in captured.err
    assert [s for s, _ in stub.calls] == [suite]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_exit_status_follows_violations(suite, stub, capsys):
    stub.doc["violations"] = ["broken"]
    assert main(_argv(suite)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"[{suite}] VIOLATION: broken" in captured.err
    stub.doc["violations"] = []
    assert main(_argv(suite)) == 0


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_files_only_with_out(suite, stub, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(_argv(suite) + ["--json"])
    assert list(tmp_path.iterdir()) == []
    main(_argv(suite) + ["--out", "doc.json"])
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    text = (tmp_path / "doc.json").read_text()
    assert text == json.dumps(stub.doc, indent=2, sort_keys=True) + "\n"


def test_shared_flags_reach_the_runners(stub):
    main(["chaos", "--suite", "rank", "--seed", "3", "--problem", "laplace"])
    main(["verify", "--problem", "elasticity", "--precisions", "double",
          "--no-diff"])
    main(["scenarios"])
    main(["kernels"])
    assert stub.calls == [
        ("rank", {"problem": "laplace", "seed": 3}),
        ("verify", {"problem": "elasticity", "precisions": ("double",),
                    "diff": False}),
        ("scenarios", {"seed": 7}),
        ("kernels", {}),
    ]


def test_problem_rejected_where_it_does_not_apply(stub):
    with pytest.raises(SystemExit):
        main(["chaos", "--suite", "overload", "--problem", "laplace"])
    assert stub.calls == []


def test_one_main_module():
    mains = sorted((REPO_ROOT / "src" / "repro").rglob("__main__.py"))
    assert mains == [REPO_ROOT / "src" / "repro" / "__main__.py"]


def _stale(pattern, tops):
    """Every match of ``pattern`` in the .md/.py files under ``tops``."""
    return [
        f"{path.relative_to(REPO_ROOT)}: {m.group()}"
        for top in tops
        for path in sorted((REPO_ROOT / top).rglob("*"))
        if path.is_file() and path.suffix in (".md", ".py")
        for m in re.finditer(pattern, path.read_text())
    ]


def test_no_per_package_module_commands_remain():
    stale = _stale(r"-m\s+repro\.[a-z]", ("docs", "src", ".claude"))
    assert not stale, "\n".join(stale)


def test_one_fault_plan_type():
    stale = _stale(
        r"RankFailurePlan|StragglerPlan|SlowRank|slow_plan|stragglers="
        r"|repro\.ft\.plan",
        ("docs", "src", "examples", ".claude"),
    )
    assert not stale, "\n".join(stale)


def test_policy_knobs_by_use():
    """The fault and serving configs keep only the fields a run sets;
    every other threshold is a module constant, so a knob can come back
    only by editing this test."""
    import dataclasses
    import inspect

    from repro.elastic import ElasticConfig, StalenessGuard, solve_async
    from repro.ft import FaultToleranceConfig
    from repro.resilience import RecoveryPolicy, ResilienceConfig
    from repro.resilience.detect import sweep_divergence
    from repro.serve import GuardConfig, ShardLoadEstimator, SolverService

    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert fields(ResilienceConfig) == ["fault_plan", "protect"]
    assert fields(FaultToleranceConfig) == ["fault_plan", "strategy", "protect"]
    assert fields(GuardConfig) == ["breaker_cooldown", "backoff_base", "seed"]
    assert fields(ElasticConfig) == ["cooldown_seconds"]
    assert params(RecoveryPolicy) == []
    assert params(ShardLoadEstimator) == []
    assert params(StalenessGuard) == ["operator"]
    assert params(solve_async) == [
        "a", "b", "precond", "stale_ranks", "max_staleness", "rtol"
    ]
    assert params(SolverService) == [
        "layout", "max_batch", "batching", "guard", "elastic", "fault_plan"
    ]
    assert inspect.signature(SolverService).parameters[
        "max_batch"
    ].annotation in (int, "int")
    assert params(sweep_divergence) == ["update_norms"]
    stale = _stale(
        r"AdmissionConfig|AdmissionController|TokenBucket|autoscale_max_batch"
        r"|fault_injector|FaultInjector|InjectedSolverFault|admission="
        r"|max_batch=\"auto\"",
        ("docs", "src", "examples", ".claude"),
    )
    assert not stale, "\n".join(stale)


def test_solver_surface_by_use():
    """The solver surface keeps only the options a run sets, each
    spelled once: the preconditioner takes its validated config object,
    so a knob can come back only by editing this test."""
    import dataclasses
    import inspect

    import repro.bench
    import repro.reuse
    from repro import (
        GDSWPreconditioner,
        KrylovConfig,
        LocalSolverSpec,
        OneLevelSchwarz,
        SchwarzConfig,
        SolverSession,
    )

    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)]

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert fields(SchwarzConfig) == [
        "local", "coarse", "extension", "overlap", "variant", "precision",
        "dim", "coarse_space", "tau", "max_vectors_per_subdomain",
    ]
    assert fields(KrylovConfig) == ["variant", "rtol", "restart", "maxiter"]
    assert fields(LocalSolverSpec) == [
        "kind", "ordering", "ilu_level", "factor_sweeps", "solve_sweeps",
        "factor_damping", "solve_damping", "gpu_solve",
    ]
    assert params(SolverSession) == [
        "problem", "partition", "config", "krylov", "nullspace", "verify",
        "policy",
    ]
    assert params(GDSWPreconditioner) == [
        "dec", "nullspace", "config", "reuse_from"
    ]
    assert params(OneLevelSchwarz) == ["dec", "spec", "overlap", "reuse_from"]
    assert not hasattr(repro.bench, "RunConfig")
    assert not hasattr(repro.reuse, "ReuseConfig")
    stale = _stale(
        r"coarse_solver|multilevel_parts|MultilevelCoarseSolver|dd\.multilevel"
        r"|pipelined_cg|PipelinedCgResult|krylov\.pipelined|block_cg"
        r"|KRYLOV_METHODS|KrylovConfig\(method|ReuseConfig|RecycleSpace"
        r"|reuse\.recycle|reuse/recycle|_suggest_x0|solve_fault_tolerant"
        r"|RunConfig|restricted=|spectral_drift_tol|adaptive_tol|tracer="
        r"|local_spec=|coarse_spec=|extension_spec=",
        ("docs", "src", "examples", ".claude"),
    )
    assert not stale, "\n".join(stale)


def test_numeric_and_fault_surface_by_use():
    """The factorization, triangular-solve and fault surfaces keep only
    what a bench, example or wall workload runs: Tacho factors by
    Cholesky alone, the orderings are ND and natural, the supernode cap
    and SuperLU's pivot threshold are module constants, and neither
    SimComm nor a FaultSpec speaks of message faults."""
    import inspect

    from repro import LocalSolverSpec
    from repro.direct import GilbertPeierlsLU, MultifrontalCholesky
    from repro.ordering import ORDERING_ALIASES
    from repro.resilience.inject import FaultSpec
    from repro.runtime.simmpi import SimComm
    from repro.tri.factored import FactoredSolve
    from repro.tri.supernodal import SupernodalTriangular

    def params(cls):
        return [p for p in inspect.signature(cls).parameters if not p.startswith("_")]

    assert params(MultifrontalCholesky) == ["ordering"]
    assert params(GilbertPeierlsLU) == ["ordering"]
    assert params(SupernodalTriangular) == [
        "n", "sn_ptr", "rows_below", "blocks", "schedule"
    ]
    assert params(FactoredSolve) == [
        "perm_in", "lower", "upper", "perm_out", "scale_in", "scale_out"
    ]
    assert params(SimComm) == [
        "size", "sends", "recvs", "bytes_sent", "allreduces",
        "reduce_doubles", "barriers",
    ]
    assert params(FaultSpec) == [
        "kind", "rank", "at_apply", "repeat", "magnitude", "occurrence",
        "phase", "start", "duration",
    ]
    assert ORDERING_ALIASES == {
        "nd": "nd", "nested_dissection": "nd", "metis": "nd",
        "natural": "natural", "no": "natural", "none": "natural",
    }
    with pytest.raises(ValueError, match="valid orderings: 'nd'.*'none'"):
        LocalSolverSpec(ordering="amd")
    with pytest.raises(ValueError, match="valid kinds: 'halo_corrupt'.*'batch_fault'"):
        FaultSpec("msg_drop")
    stale = _stale(
        r"\bldlt\b|LDL\^T|LDLᵀ|unit_diagonal=not|ordering\.(?:amd|rcm)"
        r"|\"(?:rcm|amd)\"|\brcm\(|\bamd\(|Cuthill|pivot_tol|max_supernode="
        r"|msg_drop|msg_corrupt|COMM_FAULT_KINDS|on_send|is_slow_channel"
        r"|slow_ranks|delayed_messages|SimComm\(fault_plan|split_subdomain"
        r"|scale_outs|scale_ins|elastic/scale_o|elastic/scale_in\b"
        r"|\bscale-out\b|\bscale-in\b|MAX_RANKS|BACKLOG_BATCHES|IDLE_UTILIZATION"
        r"|tenant_skewed",
        ("docs", "src", "examples", ".claude"),
    )
    assert not stale, "\n".join(stale)
