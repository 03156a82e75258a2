"""Smoke test of the wall-clock benchmark (``pytest benchmarks/wall``).

Not part of tier-1 (``testpaths`` stays ``tests``).  Runs every workload
at its tiny size and holds ``BENCHMARK.json`` and the code together.
"""

import json
import pathlib
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("wall") / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, json.loads(out.read_text()), proc.stdout, elapsed


def test_smoke_finishes_quickly(smoke):
    assert smoke[3] < 20.0


def test_every_declared_metric_is_emitted_with_its_unit(declared, smoke):
    _, runset, stdout, _ = smoke
    assert list(runset["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, passes in runset["workloads"].items():
        for key in ("end_to_end", "per_layer"):
            got = passes[key]["metrics"]
            assert list(got) == [m["name"] for m in declared[key]], (name, key)
            for m in declared[key]:
                assert got[m["name"]]["unit"] == m["unit"], (name, m["name"])
                assert f"{name:<20} {m['name']:<40}" in stdout
        assert passes["end_to_end"]["failed"] == 0
        assert passes["per_layer"]["failed"] == 0
        assert all(m["value"] > 0 for m in passes["end_to_end"]["metrics"].values())


def test_declared_betters_match_the_code(declared):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import run

    as_rows = lambda ms: [(m["name"], m["unit"], m["better"]) for m in ms]  # noqa: E731
    assert as_rows(declared["end_to_end"]) == run.END_TO_END
    assert as_rows(declared["per_layer"]) == layers.PER_LAYER


def test_driver_form_prints_one_result_line(declared):
    proc = subprocess.run(
        RUN + ["--workload", "laplace_fastilu", "--seed", "3", "--seconds", "1",
               "--trace", "0", "--smoke"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared["end_to_end"]]


def test_compare_a_run_set_with_itself_is_within(smoke):
    out = str(smoke[0])
    proc = subprocess.run(
        RUN + ["--compare", out, out], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = {line.split()[-1] for line in proc.stdout.splitlines()[1:]}
    assert verdicts <= {"within", "unresolved"}
