"""Unit tests for the benchmark CLI and the structure it stands on."""

import ast
from pathlib import Path

import pytest

from repro.bench.__main__ import EXPERIMENTS, find_benchmarks_dir, main

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


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


class TestExperimentTable:
    def test_every_figure_listed(self):
        for fig in ("fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
                    "fig14", "fig15", "fig16", "fig17"):
            assert fig in EXPERIMENTS
        assert "table1" in EXPERIMENTS and "table2" in EXPERIMENTS

    def test_files_exist(self):
        """``EXPERIMENTS`` and ``benchmarks/test_*.py`` are a bijection."""
        files = list(EXPERIMENTS.values())
        assert len(set(files)) == len(files)
        on_disk = {p.name for p in find_benchmarks_dir().glob("test_*.py")}
        assert set(files) == on_disk


class TestOneTimer:
    def test_no_pytest_benchmark_under_benchmarks(self):
        """``time_call`` is the one timer: no figure takes the ``benchmark``
        fixture or imports pytest-benchmark."""
        for path in find_benchmarks_dir().glob("*.py"):
            for module in _imported_modules(path):
                assert module.split(".")[0] != "pytest_benchmark", path.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                    assert "benchmark" not in names, f"{path.name}:{node.name}"

    def test_library_does_not_import_its_harness(self):
        """Nothing under ``src/repro`` outside ``bench/`` imports ``repro.bench``."""
        for path in SRC.rglob("*.py"):
            parts = path.relative_to(SRC).parts
            if parts[0] == "bench":
                continue
            for module in _imported_modules(path, ("repro", *parts[:-1])):
                assert not f"{module}.".startswith("repro.bench."), (
                    f"{path}: imports {module}"
                )


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])
