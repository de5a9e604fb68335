"""Every public name has a witness — or is not public.

PR 18's "no witness, no knob" rule applied to the API.  A name stays in a
subpackage's ``__all__`` only if something *outside that subpackage* uses
it: a paper experiment or e2e workload (``benchmarks/``), an example, or
another ``src/repro`` subpackage (the planner, the service).  Its own unit
test does not count — tests import unexported names from the module that
defines them.  What is exported without such a witness sits in
:data:`ALLOWED`, which admits three kinds of name only:

* ``type``  — what a witnessed callable returns or takes,
* ``hook``  — resets process-global state so tests can isolate themselves,
* ``ref``   — a reference implementation tests compare a fast path against.

``repro.__all__`` is the facade: a subset of the witnessed names, with no
allow-list of its own.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
WITNESS_DIRS = ("benchmarks", "examples")

ALLOWED = {
    "JoinResult": "type: what ejoin / tensor_join / index_join return",
    "JoinStats": "type: JoinResult.stats, read by every figure",
    "SelectionResult": "type: what eselect / quantized_eselect return",
    "SearchResult": "type: what VectorIndex.search returns",
    "QueryResponse": "type: what QueryService.submit_qos returns",
    "DirtyStringWorkload": "type: what generate_dirty_strings returns",
    "install_injector": "hook: arms the process-global fault injector",
    "clear_injector": "hook: disarms it (tests/conftest.py, every test)",
    "FlatIndex": "ref: exact index the approximate ones are checked against",
    "cosine_matrix_vectorized": "ref: row-at-a-time kernel the GEMM must match",
    "crossover_selectivity": "paper Table 1 equation, consumer is ROADMAP item 6",
}
MAX_ALLOWED = 25
#: 158 after PR 23 (161 after PR 21): room for a handful, not for a layer.
MAX_EXPORTED = 170

#: Modules and names PR 21 deleted for want of a witness; nothing may
#: bring them back (a module by existing, a name by being exported).
DELETED_MODULES = (
    "relational/operators", "algebra/costing.py", "core/calibration.py",
    "index/ivfpq.py", "index/filtering.py", "relational/io.py",
    "workloads/selectivity.py", "reliability/runtime.py", "obs/adapter.py",
    "core/parallel.py", "service/semantic_cache.py", "service/plan_cache.py",
    "engine/scheduler.py", "reliability/watchdog.py",
    # int8 is the one code scan: no product quantizer, no quantizer interface.
    "vector/quant/pq.py", "vector/quant/base.py",
)
DELETED = (
    "HashJoin", "Scan", "Sort", "Limit", "Aggregate", "AggSpec", "Filter",
    "Project", "NestedLoopJoin", "EJoinOperator", "PhysicalOperator",
    "estimate_cost", "compare_plans", "PlanEstimate", "calibrate",
    "calibrated_params", "CalibrationReport", "IVFPQIndex", "combine_and",
    "bitmap_from_predicate", "load_table", "save_table", "join_with_precision",
    "build_index_for_join", "eselect_index", "StringPredicate", "plan_equal",
    "WatchdogEvents", "replay_workload", "PAPER_CONFIG_HI", "PAPER_CONFIG_LO",
    "SCALED_CONFIG_HI", "SCALED_CONFIG_LO", "cosine_matrix", "cosine_vectorized",
    "dot_scalar", "is_normalized", "set_seed", "FrequencySketch",
    # PR 23: the three finalizers became core.eselect.exact_select, which
    # only core/ names; the prescreen constants stay there, unexported.
    "exact_threshold_select", "exact_topk_select", "guarded_topk_select",
    "PRESCREEN_MARGIN", "TOPK_PRESCREEN_PAD",
    # One ambient QueryScope holds the trace, deadline, tag and retry
    # budget these four carried separately.
    "query_scope", "deadline_scope", "current_deadline", "current_retry_budget",
    # A service renders its own snapshots; the process-wide metrics
    # registry that held a second copy of them is gone.
    "Counter", "Gauge", "MetricsRegistry", "registry", "reset_registry",
    "publish_service", "publish_nested",
    # parallel-tensor is the fp32 scan on an ExecutionEngine(n_threads), and
    # the parallel NLJ is prefetch_nlj(engine=): no third door.
    "parallel_join",
    # What a scan reads is its strategy label's: no chooser substitutes
    # codes for fp32.
    "choose_scan_precision",
    # Breakers and models belong to an engine (or a context): no
    # process-wide registry of either.
    "breakers", "reset_breakers", "default_registry",
    # Clients submit with a tag; no session handle wraps submit_qos.
    "SessionHandle",
    # The engine is a fork-join on one thread pool: nothing steals, and
    # nothing supervises threads that cannot die.
    "WorkStealingScheduler", "SchedulerStats", "WatchdogPolicy",
    "WorkerKilledFault",
    # Product quantization lost to fp32 on speed and saved no memory; with
    # int8 the one quantizer left, its interface went too.
    "ProductQuantizer", "VectorQuantizer",
)

pytestmark = pytest.mark.skipif(
    not PACKAGE.is_dir(), reason="sources only present in a repository checkout"
)


def _exported(init: Path) -> list[str]:
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def _names(path: Path) -> set[str]:
    """Every name a file imports, loads or reaches as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
    return found


def _subpackage(path: Path) -> str:
    """First directory under ``src/repro`` (``""`` for top-level modules)."""
    parts = path.relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else ""


def _walk() -> tuple[dict[str, list[str]], dict[str, set[str]], set[str]]:
    """``(exports per __init__, names used per subpackage, names used by
    benchmarks/ and examples/)``.  ``repro/__init__.py`` re-exports, so it
    witnesses nothing."""
    exports = {
        init.parent.relative_to(PACKAGE).as_posix(): _exported(init)
        for init in sorted(PACKAGE.rglob("__init__.py"))
    }
    used: dict[str, set[str]] = {}
    for path in PACKAGE.rglob("*.py"):
        if path != PACKAGE / "__init__.py":
            used.setdefault(_subpackage(path), set()).update(_names(path))
    outside = set()
    for directory in WITNESS_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            outside |= _names(path)
    return exports, used, outside


def _unwitnessed(exports, used, outside) -> dict[str, list[str]]:
    """Per subpackage ``__init__``: exported names nothing outside it uses."""
    missing = {}
    for package, names in exports.items():
        if package == ".":
            continue
        own = package.split("/")[0]
        elsewhere = outside.union(*(v for sub, v in used.items() if sub != own))
        missing[package] = [n for n in names if n not in elsewhere]
    return missing


def test_every_exported_name_is_witnessed_or_allow_listed():
    unwitnessed = _unwitnessed(*_walk())
    offenders = [
        f"repro.{package.replace('/', '.')}.{name}"
        for package, names in unwitnessed.items()
        for name in names
        if name not in ALLOWED
    ]
    assert not offenders, (
        "exported but used by no benchmark, example or other subpackage "
        "(drop it from __all__ and import it from its module in tests, or "
        "delete it): " + ", ".join(offenders)
    )


def test_the_allow_list_is_short_and_cannot_rot():
    """Every allow-listed name is exported and *still* unwitnessed: one
    that gains a witness, or goes, must leave the list."""
    assert len(ALLOWED) <= MAX_ALLOWED
    unwitnessed = {
        name for names in _unwitnessed(*_walk()).values() for name in names
    }
    assert set(ALLOWED) <= unwitnessed, sorted(set(ALLOWED) - unwitnessed)
    assert all(
        reason.startswith(("type: ", "hook: ", "ref: ", "paper Table 1"))
        for reason in ALLOWED.values()
    )


def test_the_walk_sees_real_witnesses():
    """Not vacuous: names the e2e ladder, a figure and the planner use are
    seen as witnessed, and the facade re-export is not counted as one."""
    exports, used, outside = _walk()
    assert {"eselect", "index_join", "top_k_per_row", "tensor_join_non_batched"} <= outside
    assert "choose_access_path" in used["algebra"]
    assert "" in used and "Tracer" not in used[""]
    unwitnessed = _unwitnessed(exports, used, outside)
    assert "ejoin" in exports["core"] and "ejoin" not in unwitnessed["core"]


def test_the_facade_exports_only_witnessed_names():
    """``repro.__all__``: witnessed exports of a subpackage, or top-level
    module names (``get_config``, ``__version__``) something else uses."""
    exports, used, outside = _walk()
    unwitnessed = {
        name
        for names in _unwitnessed(exports, used, outside).values()
        for name in names
    }
    re_exported = {n for p, names in exports.items() if p != "." for n in names}
    everywhere = outside.union(*(v for sub, v in used.items() if sub))
    offenders = [
        name
        for name in exports["."]
        if name in unwitnessed
        or (name not in re_exported and name not in everywhere)
    ]
    assert not offenders, offenders
    repro = importlib.import_module("repro")
    assert all(hasattr(repro, name) for name in exports["."])


def test_the_surface_stays_small_and_deleted_names_stay_deleted():
    exports, _, _ = _walk()
    total = sum(len(names) for names in exports.values())
    assert total <= MAX_EXPORTED, total
    back = [m for m in DELETED_MODULES if (PACKAGE / m).exists()]
    back += [
        f"{package}:{name}"
        for package, names in exports.items()
        for name in names
        if name in DELETED
    ]
    assert not back, back
