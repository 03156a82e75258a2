"""``python -m repro chaos --suite rank``: JSON mode, exit codes, artifacts."""

import json

from repro.__main__ import main
from repro.ft.chaos import run_matrix, summary


class TestCliJson:
    def test_json_stdout_parses_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_ft.json"
        code = main(["chaos", "--suite", "rank", "--problem", "laplace",
                     "--json", "--out", str(out)])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 0
        assert doc["violations"] == []
        assert "laplace" in doc["problems"]
        assert all(c["ok"] for c in doc["problems"]["laplace"]["cells"])
        # the artifact file carries the same document
        on_disk = json.loads(out.read_text())
        assert on_disk == doc
        # human lines went to stderr, keeping stdout machine-parseable
        assert "kill@" in captured.err

    def test_run_matrix_document_shape(self):
        doc = run_matrix(problem="laplace", seed=7)
        cells = doc["problems"]["laplace"]["cells"]
        arms = {c.get("arm") for c in cells if "arm" in c}
        assert {"control", "fault_free"} <= arms
        assert all(c["ok"] for c in cells)
        assert doc["violations"] == []
        lines = summary(doc)
        assert len(lines) == len(cells)
        assert any("kill@" in line for line in lines)
