"""One blocked scan: the select primitives stay behind ``core/scan.py``.

``select_above`` and ``TopKReducer`` are what a "score a block, prune it,
keep a bounded buffer" loop is made of.  Every scan join and served scan
reaches them through :func:`repro.core.scan.scan_candidates`; the only
other loop is the IVF probe, which walks inverted lists, not right blocks.
A new access path that names either primitive is growing its own block
loop — hand ``scan_candidates`` a ``score_block`` closure instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
PRIMITIVES = {"select_above", "TopKReducer"}
ALLOWED = {"vector/select.py", "core/scan.py", "index/ivf.py"}


def _references(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]  # ``__all__`` entries, getattr strings
        else:
            continue
        found += [(node.lineno, name) for name in names if name in PRIMITIVES]
    return found


def test_select_primitives_are_only_named_by_the_scan_core():
    if not PACKAGE.is_dir():
        pytest.skip("sources only present in a repository checkout")
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative in ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{relative}:{line} names {name}" for line, name in _references(tree)
        ]
    assert not offenders, (
        "block loops belong in core/scan.py (pass scan_candidates a "
        "score_block closure): " + "; ".join(offenders)
    )


def test_the_walk_sees_the_allowed_users():
    """The check is not vacuous: the files it exempts do name them."""
    if not PACKAGE.is_dir():
        pytest.skip("sources only present in a repository checkout")
    for relative in sorted(ALLOWED):
        tree = ast.parse((PACKAGE / relative).read_text(encoding="utf-8"))
        assert _references(tree), relative
