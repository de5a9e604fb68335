"""Unused imports and dangling ``__all__`` entries, by ``ast`` alone.

The fallback for ``ruff check .`` on a box without ruff (pyflakes' F401
and F822, nothing else): a deletion PR is exactly where an import of a
name nobody uses any more, or an ``__all__`` entry whose definition went,
hides.  Run from the repository root::

    python tools/lint_imports.py            # src tests benchmarks examples tools
    python tools/lint_imports.py src/repro  # any files or directories

Exit status 1 when anything is reported.  A name counts as used when the
file loads it (``Name`` / ``Attribute`` base), lists it in ``__all__``, or
mentions it in a string annotation; ``# noqa`` on the import line skips it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples", "tools")


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def check(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    imported: dict[str, int] = {}
    bound: set[str] = set()
    used: set[str] = set(_exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*" and "noqa" not in lines[node.lineno - 1]:
                    imported.setdefault(name, node.lineno)
                bound.add(name)
        elif isinstance(node, ast.Name):
            (used if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"[A-Za-z_]\w*", node.value))  # "Table | None"
    problems = [
        f"{path}:{line}: {name!r} imported but unused"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]
    problems += [
        f"{path}: {name!r} in __all__ but not defined"
        for name in _exported(tree)
        if name not in bound and "__getattr__" not in bound  # PEP 562 lazies
    ]
    return problems


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(r) for r in DEFAULT_ROOTS]
    files = sorted(
        f for root in roots if root.exists()
        for f in ([root] if root.is_file() else root.rglob("*.py"))
    )
    problems = [problem for f in files for problem in check(f)]
    print("\n".join(problems) or f"{len(files)} files: no unused imports")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
