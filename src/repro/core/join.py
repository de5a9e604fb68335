"""Unified context-enhanced join entry point.

:func:`ejoin` dispatches a declarative E-join request to one of the
physical strategies this repo implements, or chooses automatically with the
cost model's access-path selector — the operator-level counterpart of the
paper's holistic optimization story.
"""

from __future__ import annotations

import time

import numpy as np

from ..embedding.base import EmbeddingModel
from ..engine import ExecutionEngine
from ..errors import JoinError
from ..index.base import VectorIndex
from ..vector.kernels import Kernel
from .caps import CapPartition
from .conditions import JoinCondition, validate_condition
from .index_join import index_join
from .nlj import naive_nlj, prefetch_nlj
from .quantized_join import quantized_tensor_join
from .result import JoinResult, JoinStats
from .scan import Representation, scan_join
from .tensor_join import tensor_join

#: Every strategy :func:`ejoin` takes: ``label -> (access path, what it
#: reads, engine)``.  A scan reads one representation of the right side
#: (``fp32`` unit rows or ``int8`` codes), an NLJ one kernel.
#: ``"threads"`` builds an ``ExecutionEngine(n_threads)`` when the caller
#: hands none and names its worker count in the label
#: (``parallel-tensor/<n>t``); ``None`` runs on the caller's engine, if any.
#: The label is the one rule that picks what a scan reads.
STRATEGIES = {
    "naive-nlj": ("naive-nlj", None, None),
    "nlj": ("nlj", Kernel.VECTORIZED, None),
    "nlj-scalar": ("nlj", Kernel.SCALAR, None),
    "tensor": ("scan", "fp32", None),
    "tensor-int8": ("scan", "int8", None),
    "parallel-tensor": ("scan", "fp32", "threads"),
    "index": ("index", None, None),
}
_SCAN_LABELS = {
    reads: label
    for label, (access, reads, engine_kind) in STRATEGIES.items()
    if access == "scan" and engine_kind is None
}


def _scan_label(strategy: str, precision: str, engine: ExecutionEngine | None) -> str:
    """What a scan run under label ``strategy`` at ``precision`` reports:
    a threaded label with its worker count, else the label that reads
    ``precision`` (the fp32 a code scan fell back to, if it did)."""
    if STRATEGIES[strategy][2] == "threads":
        return f"{strategy}/{engine.n_threads}t"
    return _SCAN_LABELS[precision]


def run_scan(
    strategy: str,
    precision: str,
    left: np.ndarray,
    representation: Representation,
    condition: JoinCondition,
    *,
    engine: ExecutionEngine,
    caps: CapPartition | None = None,
) -> JoinResult:
    """:func:`~repro.core.scan.scan_join` of a right side whose
    ``representation`` (at ``precision``) the caller picked itself — the
    planner, from a source's cached state — under scan label ``strategy``."""
    stats = JoinStats(strategy=_scan_label(strategy, precision, engine))
    start = time.perf_counter()
    result = scan_join(stats, left, representation, condition, engine=engine, caps=caps)
    stats.seconds = time.perf_counter() - start
    return result


def ejoin(
    left,
    right=None,
    condition: JoinCondition | None = None,
    *,
    model: EmbeddingModel | None = None,
    strategy: str = "tensor",
    index: VectorIndex | None = None,
    allowed: np.ndarray | None = None,
    probe_k: int | None = None,
    n_threads: int | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    assume_normalized: bool = False,
    engine: ExecutionEngine | None = None,
    caps=None,
) -> JoinResult:
    """Context-enhanced join of two relations over embeddings.

    Args:
        left: probe-side vectors ``(n, d)`` or raw items (needs ``model``).
        right: base-side vectors/items; may be ``None`` when ``index`` holds
            the base side.
        condition: :class:`ThresholdCondition` or :class:`TopKCondition`.
        model: embedding model for raw inputs (prefetch-embedded once,
            except under ``strategy="naive-nlj"`` which embeds per pair).
        strategy: a label of :data:`STRATEGIES`.
        index: pre-built vector index over the right relation (the
            ``index`` strategy probes it).
        allowed: pre-filter bitmap over right ids (index strategy).
        probe_k: retrieval depth when a threshold condition runs on an index.
        assume_normalized: both inputs are already unit rows; the
            ``tensor`` and ``parallel-tensor`` scans then skip their own
            normalization (other strategies normalize as usual).
        engine: execution engine the physical operators schedule on; a
            multi-threaded engine parallelizes the scan strategies (and
            ``parallel-tensor`` builds one from ``n_threads`` when absent).
        caps: the ``tensor`` / ``parallel-tensor`` / ``tensor-int8``
            scans' cap partition of ``right``
            (:func:`~repro.core.tensor_join.tensor_join`).

    Returns:
        :class:`JoinResult` of matched offset pairs and their similarities.
    """
    if condition is None:
        raise JoinError("a join condition is required")
    validate_condition(condition)
    if strategy not in STRATEGIES:
        raise JoinError(f"unknown strategy {strategy!r}; have {tuple(STRATEGIES)}")
    if engine is not None and n_threads is not None:
        raise JoinError(
            "pass either n_threads or a pre-configured engine, not both "
            "(the engine already fixes the worker count)"
        )

    access, reads, engine_kind = STRATEGIES[strategy]

    if access == "index":
        if index is None:
            raise JoinError("index strategy requires a built vector index")
        return index_join(
            left, index, condition, model=model, allowed=allowed, probe_k=probe_k,
            engine=engine,
        )
    if access == "naive-nlj" and model is None:
        raise JoinError("naive-nlj joins raw items; an embedding model is required")
    if right is None:
        raise JoinError(f"{strategy} requires an explicit right input")
    if access == "naive-nlj":
        return naive_nlj(list(left), list(right), model, condition)
    if access == "nlj":
        return prefetch_nlj(left, right, condition, model=model, kernel=reads, engine=engine)

    # Every scan is the one operator body behind a representation of the
    # right side, under one block shape.
    if engine_kind == "threads" and engine is None:
        engine = ExecutionEngine(n_threads=n_threads)
    shape = dict(
        batch_left=batch_left,
        batch_right=batch_right,
        buffer_budget_bytes=buffer_budget_bytes,
        engine=engine,
        caps=caps,
    )
    if reads == "fp32":
        result = tensor_join(
            left, right, condition, model=model, assume_normalized=assume_normalized, **shape
        )
    else:
        result = quantized_tensor_join(
            left, right, condition, model=model, method=reads, **shape
        )
    result.stats.strategy = _scan_label(strategy, reads, engine)
    return result
