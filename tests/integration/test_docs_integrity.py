"""Documentation integrity: every doc (``docs/*.md`` and the README) must
name modules and objects that exist, every paper figure keeps its
benchmark, its committed report and its scorecard row, and the README
lists every example."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"


def _skip_unless_checkout():
    if not ARCHITECTURE.is_file():
        pytest.skip("docs only present in a repository checkout")


def _resolves(dotted: str) -> bool:
    """True when ``repro.a.b`` is a module, or an attribute of one."""
    try:
        importlib.import_module(dotted)
        return True
    except ImportError:
        parent, _, name = dotted.rpartition(".")
        try:
            return hasattr(importlib.import_module(parent), name)
        except ImportError:
            return False


class TestArchitectureDoc:
    def test_every_referenced_module_exists(self):
        _skip_unless_checkout()
        docs = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]
        referenced = {
            (path.name, name)
            for path in docs
            for name in re.findall(
                r"\brepro(?:\.[A-Za-z_]\w*)+", path.read_text(encoding="utf-8")
            )
        }
        named = {doc for doc, _ in referenced}
        assert {"ARCHITECTURE.md", "README.md"} <= named, (
            "the docs should name the modules they describe"
        )
        missing = sorted(ref for ref in referenced if not _resolves(ref[1]))
        assert not missing, missing

    def test_every_figure_has_a_benchmark(self):
        _skip_unless_checkout()
        bench_dir = REPO_ROOT / "benchmarks"
        for fig in range(8, 18):
            matches = list(bench_dir.glob(f"test_fig{fig:02d}_*.py"))
            assert matches, f"no benchmark for figure {fig}"
        assert list(bench_dir.glob("test_table1_*.py"))
        assert list(bench_dir.glob("test_table2_*.py"))

    def test_paper_identity_statement_present(self):
        _skip_unless_checkout()
        text = " ".join(ARCHITECTURE.read_text(encoding="utf-8").split())
        assert "Optimizing Context-Enhanced Relational Joins" in text


class TestExamples:
    def test_examples_exist_and_have_mains(self):
        _skip_unless_checkout()
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3, "need at least three runnable examples"
        for path in examples:
            source = path.read_text(encoding="utf-8")
            assert '__main__' in source, f"{path.name} is not runnable"
            assert source.lstrip().startswith('"""'), (
                f"{path.name} lacks a module docstring"
            )

    def test_readme_mentions_each_example(self):
        _skip_unless_checkout()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for path in (REPO_ROOT / "examples").glob("*.py"):
            if path.name == "semantic_search_table2.py":
                continue  # listed in the table by name
            assert path.stem in readme or path.name in readme, path.name


def _emitted_reports(path: Path) -> list[str]:
    """Figure ids of the reports a benchmark file builds: the first
    argument of each ``FigureReport(...)`` or ``run_sweep(...)`` call."""
    ids = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("FigureReport", "run_sweep")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            ids.append(node.args[0].value)
    return ids


def _scorecard() -> dict[str, list[str]]:
    """Rows of README's scorecard table: figure id -> its other cells."""
    rows, inside = {}, False
    for line in (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            inside = line.strip() == "### Scorecard"
            continue
        if not inside or not line.startswith("| `"):
            continue
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        rows[cells[0].strip("`")] = cells[1:]
    return rows


BENCH_FILES = sorted((REPO_ROOT / "benchmarks").glob("test_*.py"))
VERDICTS = ("holds", "differs", "not comparable")


class TestFigureArtefacts:
    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
    def test_every_report_is_committed_and_scored(self, path):
        """Each report a figure benchmark emits has a committed full-size
        ``bench_results/<figure>.txt`` ending with its provenance line,
        and one README scorecard row: claim, measured value, verdict (with
        its reason when the claim does not hold)."""
        _skip_unless_checkout()
        figures = _emitted_reports(path)
        assert figures, f"{path.name} emits no report"
        scorecard = _scorecard()
        for figure in figures:
            artefact = REPO_ROOT / "bench_results" / f"{figure.lower()}.txt"
            assert artefact.is_file(), f"{artefact.name} is not committed"
            last = artefact.read_text(encoding="utf-8").splitlines()[-1]
            assert last.startswith("env: {"), f"{artefact.name} has no provenance line"
            assert figure in scorecard, f"README scorecard has no `{figure}` row"
            claim, measured, verdict = scorecard[figure]
            assert claim and measured, figure
            kind = next((v for v in VERDICTS if verdict.startswith(v)), None)
            assert kind is not None, f"{figure}: verdict {verdict!r}"
            assert kind == "holds" or len(verdict) > len(kind) + 2, (
                f"{figure}: '{kind}' needs its reason"
            )

    def test_scorecard_rows_are_experiments(self):
        _skip_unless_checkout()
        emitted = {f for path in BENCH_FILES for f in _emitted_reports(path)}
        assert set(_scorecard()) == emitted
