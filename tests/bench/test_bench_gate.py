"""tools/check_bench_results.py: the committed-bench byte-identity gate.

Running the benches takes about a minute, so tier-1 only checks the
gate's wiring: the bench list, the committed files it compares against,
the CI matrix running the same commands, and the compare step itself
(on a stub bench).  ``python tools/check_bench_results.py`` is the real
run.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOL = REPO_ROOT / "tools" / "check_bench_results.py"
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture()
def tool():
    spec = importlib.util.spec_from_file_location("check_bench_results", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_gated_bench_has_a_committed_file(tool):
    assert sorted(tool.BENCHES) == [
        "elastic", "reuse", "scenarios", "serve", "slo"
    ]
    for name in tool.BENCHES:
        assert (tool.RESULTS / f"BENCH_{name}.json").is_file(), name


def test_ci_runs_the_same_commands(tool):
    ci = CI.read_text()
    for name, args in tool.BENCHES.items():
        command = " ".join(["python", "-m", *args, "--out", f"BENCH_{name}.json"])
        assert command in ci, f"CI bench matrix lacks: {command}"
    assert "cmp ${{ matrix.artifact }} benchmarks/results/" in ci


def test_unknown_bench_is_rejected(tool, capsys):
    assert tool.main(["wall"]) == 2
    assert "valid values" in capsys.readouterr().out


def test_compare_step_detects_a_difference(tool, tmp_path, monkeypatch, capsys):
    """A stub bench that copies a file: identical passes, edited fails."""
    results = tmp_path / "results"
    results.mkdir()
    committed = results / "BENCH_stub.json"
    committed.write_text('{"answer": 42}\n')
    source = tmp_path / "source.json"
    shutil.copy(committed, source)
    stub = tmp_path / "stubbench.py"
    stub.write_text(
        "import shutil, sys\n"
        f"shutil.copy({str(source)!r}, sys.argv[sys.argv.index('--out') + 1])\n"
    )
    monkeypatch.setattr(tool, "RESULTS", results)
    monkeypatch.setattr(tool, "BENCHES", {"stub": ["stubbench"]})
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    assert tool.main([]) == 0
    source.write_text('{"answer": 43}\n')
    assert tool.main(["stub"]) == 1
    assert "differs" in capsys.readouterr().out
