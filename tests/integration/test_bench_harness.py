"""Unit tests for the figure harness (``benchmarks/_report.py``) and the
rules it stands on."""

import ast
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS = ROOT / "benchmarks"
SRC = ROOT / "src" / "repro"

sys.path.insert(0, str(BENCHMARKS))

from _report import FigureReport, speedup, time_call  # noqa: E402


def _imported_modules(path: Path, package: tuple[str, ...] = ()):
    """Absolute dotted name of every module (and ``from`` target) that
    ``path`` imports; ``package`` is the package the file lives in."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join([*base, *filter(None, [node.module])])
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


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
        assert path == tmp_path / "figx.txt"
        assert path.read_text().startswith(self.make().render() + "\n")

    def test_saved_report_ends_with_its_environment(self, tmp_path):
        """The last line is the end-to-end harness's environment dict, in
        the JSON form its records carry."""
        *_, last = self.make().save(tmp_path).read_text().splitlines()
        tag, _, payload = last.partition(" ")
        assert tag == "env:"
        env = json.loads(payload)
        assert {"nproc", "blas_threads", "repro_threads", "numpy", "git_rev"} <= set(env)

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


class TestOneTimer:
    def test_no_pytest_benchmark_under_benchmarks(self):
        """``time_call`` is the one timer: no figure takes the ``benchmark``
        fixture or imports pytest-benchmark."""
        for path in BENCHMARKS.glob("*.py"):
            for module in _imported_modules(path):
                assert module.split(".")[0] != "pytest_benchmark", path.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                    assert "benchmark" not in names, f"{path.name}:{node.name}"

    def test_library_does_not_import_its_harness(self):
        """Nothing under ``src/repro`` imports a module of ``benchmarks/``
        (the figure harness, its helpers, the end-to-end harness)."""
        harness = {path.stem for path in BENCHMARKS.rglob("*.py")}
        harness |= {path.name for path in BENCHMARKS.iterdir() if path.is_dir()}
        for path in SRC.rglob("*.py"):
            parts = path.relative_to(SRC).parts
            for module in _imported_modules(path, ("repro", *parts[:-1])):
                assert module.split(".")[0] not in harness, f"{path}: imports {module}"
