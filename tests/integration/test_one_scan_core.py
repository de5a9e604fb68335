"""One blocked scan, one shape rule: the select primitives stay behind
``core/scan.py`` and block-shape arithmetic behind ``vector/select.py``.

``select_above`` and ``TopKReducer`` are what a "score a block, prune it,
keep a bounded buffer" loop is made of.  Every scan join and served scan
reaches them through :func:`repro.core.scan.scan_candidates`.  The
list-major kernel under the IVF probe and a cap task
(:func:`repro.index.ivf.score_pairs`) walks inverted lists, not right
blocks, and needs neither: it reads its top-k by a partition.  A new
access path that names either primitive is growing its own block loop —
hand ``scan_candidates`` a ``score_block`` closure instead.

Which ``(batch_left, batch_right)`` a scan runs is
:func:`repro.vector.select.scan_shape`'s decision alone: the constants it
weighs and any budget-to-edge arithmetic (an ``isqrt``, a ``// (4 * rows)``)
named anywhere else is a second shape rule growing.

What makes a served selection *exact* — the prescreen margin and pad, the
fp32 ``score_block``, the finalizer that re-scores candidates and proves
or widens them (through :func:`repro.core.scan.prove_topk`, the one proof
every re-scored top-k takes) — is :func:`repro.core.eselect.select_group`'s alone: named
only under ``core/``, with the scan's own parts also reaching the shard
pool and worker, which run the same pass over a row range.  ``service/``
schedules; a margin or a candidate fold named there is the rule being
written out a second time.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"
PRIMITIVES = {"select_above", "TopKReducer"}
ALLOWED = {"vector/select.py", "core/scan.py"}


#: What the shape rule weighs; ``index/ivf.py`` sizes its probe slices
#: by ``BLOCK_BYTES`` too (inverted lists, not right blocks).
SHAPE_NAMES = {
    "BLOCK_BYTES", "WIDE_TASK_ROWS", "MAX_BLOCK_ROWS", "MORSELS_PER_WORKER",
    "MIN_TASK_WORK", "MIN_TASK_ROWS", "isqrt",
}
SHAPE_RULE = "vector/select.py"
IVF_MAY_NAME = {"BLOCK_BYTES"}
#: Names deleted with the policy object; nothing may bring them back.
DELETED = ("BatchPolicy", "resolve_block_shape", "adaptive_edge", "from_calibration")


#: The exactness rule of served scans: ``core/`` only.
EXACT_RULE = {
    "PRESCREEN_MARGIN", "TOPK_PRESCREEN_PAD", "dense_score_block", "exact_select", "prove_topk",
}
#: The scan's parts: ``core/`` plus the shard pool and its worker.
SCAN_PARTS = {"merge_topk", "split_rows", "scan_candidates"}
SCAN_PARTS_ALLOWED = {"shard/pool.py", "shard/worker.py"}
#: What ``service/coalescer.py`` may import from ``repro.core``.
COALESCER_MAY_IMPORT = {"select_group", "ThresholdCondition", "TopKCondition"}


def _references(tree: ast.AST, wanted=None, *, attributes=True) -> list[tuple[int, str]]:
    wanted = PRIMITIVES if wanted is None else wanted
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr] if attributes else []
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


def _core_imports(tree: ast.AST) -> dict[str, set[str]]:
    """``module -> names`` of every ``from`` import reaching ``repro.core``."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = (node.module or "").removeprefix("repro.")
        if module.split(".")[0] == "core":
            found.setdefault(module, set()).update(a.name for a in node.names)
    return found


def test_the_exactness_rule_of_served_scans_is_only_named_under_core():
    if not PACKAGE.is_dir():
        pytest.skip("sources only present in a repository checkout")
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if relative.startswith("core/"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{relative}:{line} names {name}" for line, name in _references(tree, EXACT_RULE)
        ]
        if relative not in SCAN_PARTS_ALLOWED:
            # A method of that name on another object is not the core's
            # function (``ShardPool.scan_candidates``, which the coalescer
            # hands to ``scan=``); reaching the function takes an import.
            offenders += [
                f"{relative}:{line} names {name}"
                for line, name in _references(tree, SCAN_PARTS, attributes=False)
            ]
            offenders += [
                f"{relative} imports {module}"
                for module in _core_imports(tree)
                if module.split(".")[1:2] == ["scan"]
            ]
    coalescer = ast.parse((PACKAGE / "service/coalescer.py").read_text(encoding="utf-8"))
    imported = _core_imports(coalescer)
    offenders += [
        f"service/coalescer.py imports {sorted(names)} from {module}"
        for module, names in imported.items()
        if module != "core" or not names <= COALESCER_MAY_IMPORT
    ]
    assert not offenders, (
        "what makes a served selection exact belongs to "
        "core/eselect.py::select_group: " + "; ".join(offenders)
    )
    # Not vacuous: the walk sees the one finalizer, the constants and the
    # allowed users of the scan's parts, and the coalescer's one import.
    eselect = ast.parse((PACKAGE / "core/eselect.py").read_text(encoding="utf-8"))
    assert {name for _, name in _references(eselect, EXACT_RULE)} == EXACT_RULE
    for relative in sorted(SCAN_PARTS_ALLOWED):
        tree = ast.parse((PACKAGE / relative).read_text(encoding="utf-8"))
        assert _references(tree, SCAN_PARTS, attributes=False), relative
    assert "select_group" in imported["core"]


def test_one_function_rescores_prescreen_candidates():
    """``stable_dot_scores`` — the kernel that defines a served score — is
    called by exactly one function of the package, the finalizer."""
    if not PACKAGE.is_dir():
        pytest.skip("sources only present in a repository checkout")
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "stable_dot_scores"
                for node in ast.walk(func)
            ):
                callers.append(f"{path.relative_to(PACKAGE).as_posix()}::{func.name}")
    assert callers == ["core/eselect.py::exact_select"], callers
