"""Unit tests for the benchmark harness."""

import json
import os

import numpy as np
import pytest

from repro.bench import FigureReport, speedup, time_call
from repro.bench.harness import git_revision


class TestTimeCall:
    def test_returns_result_and_time(self):
        result, seconds = time_call(lambda x: x * 2, 21)
        assert result == 42
        assert type(seconds) is float and seconds >= 0

    def test_repeat_takes_best(self):
        calls = []

        def fn():
            calls.append(1)
            return len(calls)

        result, _ = time_call(fn, repeat=3)
        assert result == 3
        assert len(calls) == 3

    def test_invalid_repeat(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeat=0)


class TestSpeedup:
    def test_basic(self):
        assert speedup(2.0, 1.0) == 2.0

    def test_zero_optimized(self):
        assert speedup(1.0, 0.0) == float("inf")


class TestFigureReport:
    def make(self):
        report = FigureReport("figX", "demo", ("a", "b"))
        report.add(1, 2.5)
        report.add("row", 0.000123)
        report.note("a note")
        return report

    def test_row_arity_checked(self):
        report = FigureReport("figX", "demo", ("a", "b"))
        with pytest.raises(ValueError):
            report.add(1)

    def test_render_contains_everything(self):
        text = self.make().render()
        assert "figX" in text
        assert "demo" in text
        assert "a note" in text
        assert "2.5" in text

    def test_float_formatting(self):
        text = self.make().render()
        assert "0.000123" in text

    def test_save(self, tmp_path):
        path = self.make().save(tmp_path)
        assert path.exists()
        assert "figX" in path.read_text()

    def test_empty_report_renders(self):
        report = FigureReport("figY", "empty", ("col",))
        assert "figY" in report.render()

    def test_render_golden(self):
        assert self.make().render() == (
            "== figX: demo ==\n"
            "a    b       \n"
            "-------------\n"
            "1    2.5     \n"
            "row  0.000123\n"
            "note: a note"
        )

    def test_to_json_golden(self):
        payload = self.make().to_json()
        assert sorted(payload) == [
            "columns", "config", "created_at", "figure", "git_rev", "notes",
            "rows", "title",
        ]
        assert payload["rows"] == [[1, 2.5], ["row", 0.000123]]


class TestMachineReadableReport:
    def make(self):
        report = FigureReport("figX", "demo", ("name", "seconds"))
        report.add("fp32", np.float32(1.5))  # NumPy scalars must serialize
        report.add("int8", 0.75)
        report.note("provenance note")
        return report

    def test_save_json_writes_bench_file(self, tmp_path):
        path = self.make().save_json(tmp_path)
        assert path.name == "BENCH_figx.json"
        payload = json.loads(path.read_text())
        assert payload["figure"] == "figX"
        assert payload["columns"] == ["name", "seconds"]
        assert payload["rows"] == [["fp32", 1.5], ["int8", 0.75]]
        assert payload["notes"] == ["provenance note"]

    def test_json_carries_config_and_revision(self, tmp_path):
        payload = json.loads(self.make().save_json(tmp_path).read_text())
        config = payload["config"]
        assert "precision" in config
        assert "buffer_budget_bytes" in config
        # A number carries its environment: resolved workers, usable CPUs,
        # BLAS threads as set.
        assert isinstance(config["threads"], int) and config["threads"] >= 1
        assert isinstance(config["cpus"], int) and config["cpus"] >= 1
        assert config["openblas_num_threads"] == os.environ.get(
            "OPENBLAS_NUM_THREADS"
        )
        assert "omp_num_threads" in config
        assert isinstance(payload["git_rev"], str) and payload["git_rev"]
        assert payload["created_at"]

    def test_json_next_to_text_report(self, tmp_path):
        report = self.make()
        report.save(tmp_path)
        report.save_json(tmp_path)
        assert (tmp_path / "figx.txt").exists()
        assert (tmp_path / "BENCH_figx.json").exists()

    def test_git_revision_is_stringy(self):
        rev = git_revision()
        assert isinstance(rev, str) and rev
