"""Data-parallel E-join execution (Section V-A, Figure 9).

The paper parallelizes by partitioning the input relations along tuple
boundaries and running the join kernel per partition on affinitized
threads.  Here partitioning and scheduling belong to the morsel-driven
:mod:`repro.engine`: the left relation is cut into many small morsels and
work-stealing workers run NumPy/BLAS kernels that release the GIL, so a
thread pool yields genuine multicore scaling for the vectorized and GEMM
paths — the Python analogue of the paper's 48-thread runs, robust to skew
because idle workers steal queued morsels instead of waiting at a static
partition barrier.
"""

from __future__ import annotations

import numpy as np

from ..engine import ExecutionEngine
from ..errors import JoinError
from ..vector.kernels import Kernel
from .conditions import JoinCondition, validate_condition
from .nlj import prefetch_nlj
from .result import JoinResult
from .tensor_join import tensor_join


def parallel_join(
    left: np.ndarray,
    right: np.ndarray,
    condition: JoinCondition,
    *,
    strategy: str = "tensor",
    n_threads: int | None = None,
    kernel: Kernel = Kernel.VECTORIZED,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    assume_normalized: bool = False,
    engine: ExecutionEngine | None = None,
) -> JoinResult:
    """Join on an engine's workers, the left relation cut into morsels.

    Args:
        strategy: ``"tensor"`` (:func:`tensor_join`) or ``"nlj"``
            (:func:`prefetch_nlj`), each run with ``engine=`` — their left
            blocks are the morsels.
        n_threads: worker count; defaults to the machine's CPU count.
            Ignored when an explicit ``engine`` is supplied.
        kernel: similarity kernel for the NLJ strategy.
        buffer_budget_bytes: total Figure 7 buffer budget for the tensor
            strategy's dense intermediates, split evenly across workers so
            concurrently-held blocks stay within it.
        assume_normalized: both inputs are already unit rows (e.g. the
            planner's normalize-once matrix); skip normalization.
        engine: a pre-configured :class:`~repro.engine.ExecutionEngine`;
            by default one is built for ``n_threads`` workers.

    The result is identical to the single-threaded operator (partitioning
    is along tuples; both condition families are per-left-tuple, and
    morsel results reassemble in input order regardless of which worker
    ran them).
    """
    validate_condition(condition)
    if strategy not in ("tensor", "nlj"):
        raise JoinError(f"unknown parallel strategy {strategy!r}")
    if engine is not None and n_threads is not None:
        raise JoinError(
            "pass either n_threads or a pre-configured engine, not both "
            "(the engine's worker count would silently win)"
        )
    left = np.asarray(left, dtype=np.float32)
    right = np.asarray(right, dtype=np.float32)
    if engine is None:
        engine = ExecutionEngine(n_threads=n_threads)

    # Both operators cut their own left side to the engine's morsels (the
    # tensor join also splits the budget over the blocks resident at once).
    if strategy == "tensor":
        result = tensor_join(
            left,
            right,
            condition,
            batch_left=batch_left,
            batch_right=batch_right,
            buffer_budget_bytes=buffer_budget_bytes,
            assume_normalized=assume_normalized,
            engine=engine,
        )
        shape = result.stats.extra.get("batch_shape")  # absent: an empty side
        result.stats.extra["morsels"] = -(-len(left) // shape[0]) if shape else 0
    else:
        result = prefetch_nlj(
            left, right, condition, kernel=kernel,
            assume_normalized=assume_normalized, engine=engine,
        )  # reports the morsels it cut
    result.stats.strategy = f"parallel-{strategy}/{engine.n_threads}t"
    return result
