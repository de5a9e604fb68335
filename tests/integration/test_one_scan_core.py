"""One blocked scan, one shape rule: the select primitives stay behind
``core/scan.py`` and block-shape arithmetic behind ``vector/select.py``.

``select_above`` and ``TopKReducer`` are what a "score a block, prune it,
keep a bounded buffer" loop is made of.  Every scan join and served scan
reaches them through :func:`repro.core.scan.scan_candidates`; the only
other loop is the IVF probe, which walks inverted lists, not right blocks.
A new access path that names either primitive is growing its own block
loop — hand ``scan_candidates`` a ``score_block`` closure instead.

Which ``(batch_left, batch_right)`` a scan runs is
:func:`repro.vector.select.scan_shape`'s decision alone: the constants it
weighs and any budget-to-edge arithmetic (an ``isqrt``, a ``// (4 * rows)``)
named anywhere else is a second shape rule growing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
PRIMITIVES = {"select_above", "TopKReducer"}
ALLOWED = {"vector/select.py", "core/scan.py", "index/ivf.py"}


#: What the shape rule weighs; ``index/ivf.py`` sizes its probe slices
#: by ``BLOCK_BYTES`` too (inverted lists, not right blocks).
SHAPE_NAMES = {
    "BLOCK_BYTES", "STRIP_BYTES", "MAX_BLOCK_ROWS", "MORSELS_PER_WORKER",
    "MIN_TASK_WORK", "MIN_TASK_ROWS", "isqrt",
}
SHAPE_RULE = "vector/select.py"
IVF_MAY_NAME = {"BLOCK_BYTES"}
#: Names deleted with the policy object; nothing may bring them back.
DELETED = ("BatchPolicy", "resolve_block_shape", "adaptive_edge", "from_calibration")


def _references(tree: ast.AST, wanted=None) -> list[tuple[int, str]]:
    wanted = PRIMITIVES if wanted is None else wanted
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
        found += [(node.lineno, name) for name in names if name in wanted]
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


def _cells_from_bytes(tree: ast.AST) -> list[int]:
    """Lines dividing by ``4 * something``: bytes turned into fp32 cells
    per row, the arithmetic a block edge is derived with."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Mult)
        and any(
            isinstance(side, ast.Constant) and side.value == 4
            for side in (node.right.left, node.right.right)
        )
    ]


def test_block_shapes_are_only_derived_by_the_shape_rule():
    if not PACKAGE.is_dir():
        pytest.skip("sources only present in a repository checkout")
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        text = path.read_text(encoding="utf-8")
        offenders += [
            f"{relative} names deleted {name}" for name in DELETED if name in text
        ]
        if relative == SHAPE_RULE:
            continue
        tree = ast.parse(text, filename=str(path))
        allowed = IVF_MAY_NAME if relative == "index/ivf.py" else set()
        offenders += [
            f"{relative}:{line} names {name}"
            for line, name in _references(tree, SHAPE_NAMES - allowed)
        ]
        if relative != "index/ivf.py":
            offenders += [
                f"{relative}:{line} derives cells from bytes"
                for line in _cells_from_bytes(tree)
            ]
    assert not offenders, (
        "block shapes belong to vector/select.py::scan_shape: "
        + "; ".join(offenders)
    )
    rule = ast.parse((PACKAGE / SHAPE_RULE).read_text(encoding="utf-8"))
    assert {name for _, name in _references(rule, SHAPE_NAMES)} == SHAPE_NAMES
    assert _cells_from_bytes(rule)  # the walk sees what it guards
