"""Documentation integrity: every doc (``docs/*.md`` and the README) must
name modules and objects that exist, every paper figure keeps its
benchmark, and the README lists every example."""

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
