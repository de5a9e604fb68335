"""Unified context-enhanced join entry point.

:func:`ejoin` dispatches a declarative E-join request to one of the
physical strategies this repo implements, or chooses automatically with the
cost model's access-path selector — the operator-level counterpart of the
paper's holistic optimization story.
"""

from __future__ import annotations

import numpy as np

from ..embedding.base import EmbeddingModel
from ..engine import ExecutionEngine
from ..errors import JoinError
from ..index.base import VectorIndex
from ..vector.kernels import Kernel
from .conditions import JoinCondition, TopKCondition, validate_condition
from .cost_model import CostParams, choose_access_path, choose_scan_precision
from .index_join import DEFAULT_PROBE_K, index_join
from .nlj import naive_nlj, prefetch_nlj
from .parallel import parallel_join
from .precision import tensor_join_fp16
from .quantized_join import quantized_tensor_join
from .result import JoinResult
from .tensor_join import tensor_join

#: Valid strategy names for :func:`ejoin`.
STRATEGIES = (
    "auto",
    "naive-nlj",
    "nlj",
    "nlj-scalar",
    "tensor",
    "tensor-fp16",
    "tensor-int8",
    "tensor-pq",
    "parallel-tensor",
    "index",
)


def _resolve_vectors(side, model: EmbeddingModel | None) -> np.ndarray:
    if isinstance(side, np.ndarray):
        return np.asarray(side, dtype=np.float32)
    if model is None:
        raise JoinError("raw join inputs require an embedding model")
    return model.embed_batch(list(side))


def ejoin(
    left,
    right=None,
    condition: JoinCondition | None = None,
    *,
    model: EmbeddingModel | None = None,
    strategy: str = "auto",
    index: VectorIndex | None = None,
    allowed: np.ndarray | None = None,
    probe_k: int | None = None,
    n_threads: int | None = None,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    cost_params: CostParams | None = None,
    selectivity_hint: float = 1.0,
    assume_normalized: bool = False,
    engine: ExecutionEngine | None = None,
) -> JoinResult:
    """Context-enhanced join of two relations over embeddings.

    Args:
        left: probe-side vectors ``(n, d)`` or raw items (needs ``model``).
        right: base-side vectors/items; may be ``None`` when ``index`` holds
            the base side.
        condition: :class:`ThresholdCondition` or :class:`TopKCondition`.
        model: embedding model for raw inputs (prefetch-embedded once,
            except under ``strategy="naive-nlj"`` which embeds per pair).
        strategy: one of ``auto | naive-nlj | nlj | nlj-scalar | tensor |
            parallel-tensor | index``.
        index: pre-built vector index over the right relation (enables the
            ``index`` strategy and informs ``auto``).
        allowed: pre-filter bitmap over right ids (index strategy).
        probe_k: retrieval depth when a threshold condition runs on an index.
        selectivity_hint: relational selectivity estimate for ``auto``'s
            access-path selection.
        assume_normalized: both inputs are already unit rows; the
            ``tensor`` and ``parallel-tensor`` scans then skip their own
            normalization (other strategies normalize as usual).
        engine: execution engine the physical operators schedule on; a
            multi-threaded engine parallelizes the scan strategies (and
            ``parallel-tensor`` builds one from ``n_threads`` when absent).

    Returns:
        :class:`JoinResult` of matched offset pairs and their similarities.
    """
    if condition is None:
        raise JoinError("a join condition is required")
    validate_condition(condition)
    if strategy not in STRATEGIES:
        raise JoinError(f"unknown strategy {strategy!r}; have {STRATEGIES}")
    if engine is not None and n_threads is not None:
        # Rejected up front so the error does not depend on which strategy
        # "auto" happens to select for this input size.
        raise JoinError(
            "pass either n_threads or a pre-configured engine, not both "
            "(the engine already fixes the worker count)"
        )

    if strategy == "auto":
        strategy = _auto_strategy(
            left,
            right,
            condition,
            model=model,
            index=index,
            probe_k=probe_k,
            cost_params=cost_params,
            selectivity_hint=selectivity_hint,
        )

    if strategy == "naive-nlj":
        if model is None:
            raise JoinError("naive-nlj joins raw items; an embedding model "
                            "is required")
        if right is None:
            raise JoinError("naive-nlj requires an explicit right input")
        return naive_nlj(list(left), list(right), model, condition)

    if strategy in ("nlj", "nlj-scalar"):
        if right is None:
            raise JoinError(f"{strategy} requires an explicit right input")
        kernel = Kernel.SCALAR if strategy == "nlj-scalar" else Kernel.VECTORIZED
        return prefetch_nlj(
            left, right, condition, model=model, kernel=kernel, engine=engine
        )

    if strategy != "index":
        # Every scan strategy is the one operator body behind a
        # representation of the right side, under one block shape.
        if right is None:
            raise JoinError(f"{strategy} requires an explicit right input")
        shape = dict(
            batch_left=batch_left,
            batch_right=batch_right,
            buffer_budget_bytes=buffer_budget_bytes,
            engine=engine,
        )
        if strategy == "tensor":
            return tensor_join(
                left, right, condition, model=model,
                assume_normalized=assume_normalized, **shape,
            )
        if strategy == "tensor-fp16":
            return tensor_join_fp16(left, right, condition, model=model, **shape)
        if strategy in ("tensor-int8", "tensor-pq"):
            return quantized_tensor_join(
                left, right, condition, model=model,
                method=strategy.removeprefix("tensor-"), **shape,
            )
        assert strategy == "parallel-tensor"
        return parallel_join(
            _resolve_vectors(left, model),
            _resolve_vectors(right, model),
            condition,
            strategy="tensor",
            n_threads=n_threads,
            assume_normalized=assume_normalized,
            **shape,
        )

    if index is None:
        raise JoinError("index strategy requires a built vector index")
    return index_join(
        left,
        index,
        condition,
        model=model,
        allowed=allowed,
        probe_k=probe_k,
        engine=engine,
    )


def _auto_strategy(
    left,
    right,
    condition: JoinCondition,
    *,
    model: EmbeddingModel | None,
    index: VectorIndex | None,
    probe_k: int | None,
    cost_params: CostParams | None,
    selectivity_hint: float,
) -> str:
    """Cost-based physical strategy selection."""
    n_left = len(left)
    if index is not None:
        n_base = len(index)
        dim = index.dim
        if isinstance(condition, TopKCondition):
            k = condition.k
        else:
            k = DEFAULT_PROBE_K if probe_k is None else probe_k
        decision = choose_access_path(
            n_left,
            n_base,
            k,
            dim,
            selectivity=selectivity_hint,
            params=cost_params,
        )
        if decision.choice == "index":
            return "index"
    if right is None:
        # Only the index holds the base side; a scan is impossible.
        if index is None:
            raise JoinError("auto strategy needs either right input or index")
        return "index"
    # Scan path: the configured precision may substitute a reduced-
    # precision scan (fp16 storage, or quantized codes + exact re-rank)
    # for the fp32 tensor formulation.  Quantized substitution goes
    # through the same cost/recall gate the planner applies — including
    # the per-call fit/encode build, which ejoin cannot amortize — so a
    # join too small to pay for quantizer training stays on fp32.
    from ..config import get_config

    n_right = len(right)
    precision = get_config().default_precision
    if precision == "fp16":
        return "tensor-fp16"
    vectors = isinstance(right, np.ndarray) and right.ndim == 2
    # Raw items take their dimension from the model; with neither, the
    # tensor join below rejects the input.
    if precision in ("int8", "pq") and (vectors or model is not None):
        if isinstance(condition, TopKCondition):
            k = condition.k
        else:
            k = DEFAULT_PROBE_K if probe_k is None else probe_k
        dim = right.shape[1] if vectors else model.dim
        decision = choose_scan_precision(
            n_left, n_right, k, dim, params=cost_params, store_built=False
        )
        if decision.precision in ("int8", "pq"):
            return f"tensor-{decision.precision}"
    # Single-threaded tensor for small inputs, parallel beyond.
    if n_left * n_right >= 4_000_000 and isinstance(left, np.ndarray):
        return "parallel-tensor"
    return "tensor"
