"""Batch-major select: floor-gated chunk-max pruning of score blocks.

Every E-join access path ends the same way: a GEMM leaves a dense
``(rows, width)`` score block, and only a sliver of it — each row's top-k,
or the cells above a threshold — is ever needed (paper Section IV-C,
Figure 6 step 2: prune the block to qualifying pairs *immediately*).  A
full-width ``argpartition`` or compare touches every cell several times
and allocates index temporaries larger than the block itself; this module
touches every cell once:

1. View the block as ``(rows, CHUNK, width // CHUNK)`` and take the
   maximum over the middle axis — ``CHUNK`` contiguous row segments folded
   by one SIMD ``maximum`` pass.  Column ``j`` lands in strided chunk
   ``j % (width // CHUNK)``.
2. Compare only those maxima against a per-row *floor* (the threshold, or
   the running k-th best score).  A chunk whose maximum is under the floor
   cannot hold a qualifying cell.
3. Gather just the surviving chunks and keep their cells that reach the
   floor.

With no floor yet (first block of a top-k scan) the floor is the row's
k-th largest chunk maximum ``m``: the k chunks with the largest maxima each
hold a cell ``>= m``, so at least k cells reach ``m``, the row's k-th best
score ``t`` satisfies ``t >= m``, and every cell ``>= t`` — the whole
top-k with all its ties — survives the gate.

The pass gets cheaper per cell as the block widens (fewer maxima to
rank, fewer folds), which is what :func:`scan_shape` sizes a block for.
Scores must be NaN-free.

:func:`scan_shape` is the one rule that says which block a scan runs;
every constant it weighs is named here and nowhere else.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BufferBudgetError, DimensionalityError

#: Cells per strided chunk: one maximum stands in for this many cells.
CHUNK = 32

#: Chunks per row under which chunking does not pay: up to here one
#: compare over the whole block is cheaper than the chunk bookkeeping
#: (measured: a block that has a floor breaks even near 4,096 columns, a
#: cold one — which ranks maxima instead of cells — near 800; every
#: derived block is at least this wide, see :func:`scan_shape`).
MIN_STRIDE = 32

#: Bytes of one fp32 score block; a strip (block rows x every column)
#: over it is cut to whole chunks within it.  What a block buys is
#: amortisation, not cache residency — this box has 4 MB of L2 and at
#: every left edge the select and the fold get cheaper per cell as the
#: block widens while the GEMM does not care, until the block's own
#: writes go to DRAM (``tools/sweep_blocks.py``, 1,000 x 40,000 x 128
#: top-8, one thread, edge 500: 4 MiB blocks 86 + 36 + 4 ms of GEMM +
#: select + fold, 8 MiB 83 + 23 + 3, 16 MiB 84 + 20 + 3, 32 MiB 86 + 20
#: + 2, the whole 76 MiB strip 106 + 21 + 1; 834 x 8,000 x 64 top-1, edge
#: 209: 2 MiB 15.3 ms, 4 MiB 13.6, the whole 6.4 MiB strip 11.9).  Every
#: worker holds one block, so the bound is set by memory: 16 MiB buys a
#: 1,000 x 40,000 join 3 ms of CPU more and costs each worker 8 MB.
BLOCK_BYTES = 8 << 20

#: Derived left edges stop here: past it, a block within
#: :data:`BLOCK_BYTES` is narrower than 2,048 columns, where the select
#: costs twice per cell what it does at 4,192 (the sweep's edge 1,000:
#: 1,024 columns 53 ms, 2,080 32, 4,192 23).
MAX_BLOCK_ROWS = 1024

#: Left rows a task of a large join keeps at least, when the left side
#: has them.  Every left task re-reads the whole right side, and per right
#: block pays a BLAS re-pack, an int8 or fp16 cast, a select and a fold;
#: the taller the task, the fewer times.  The sweep's 1,000 x 40,000 x 128
#: GEMM alone: 63-row tasks 74-77 GFLOP/s, 125 rows 96-98, 250 rows
#: 107-110, 500 rows 117-124, 1,000 rows 119-130 — at 500 the tax is
#: under a tenth.
#: Tall tasks give up :data:`MORSELS_PER_WORKER`'s balancing slack, which
#: a join pays for in scheduling jitter whatever its size: only a join
#: whose work the :data:`MIN_TASK_WORK` floor was not already rationing
#: takes them (834 x 8,000 x 64 on two workers keeps four 209-row tasks:
#: ``ejoin_strings`` read 9.35 ms an op so, 9.63 in two of 417).
WIDE_TASK_ROWS = 500

#: Tasks per worker a cut left side aims for, so a worker that finishes
#: early takes queued work off a slow one.
MORSELS_PER_WORKER = 4

#: Multiply-adds (score cells x dim) under which a task is not worth
#: scheduling on its own: ~1.5 ms of one core's GEMM on the reference box.
#: Tasks that short spend as long handing the GIL back and forth around
#: their NumPy calls as they spend running.  Measured on a top-1 join of
#: 835 x 8,000 x 64 over two workers, interleaved: eight 105-row tasks
#: (54 M each) p50 8.9 ms, four 209-row tasks (107 M) 7.0 ms, two 418-row
#: tasks 6.4 ms.  A 125 x 40,000 x 128 morsel is 640 M.
MIN_TASK_WORK = 3 << 25

#: Left rows under which a task is not cut either: every task streams the
#: whole right side once, and a GEMM this short no longer amortises it.
#: 125 x 40,000 x 128 top-10 on one worker: one 125-row task 25 ms, two of
#: 63 rows 31 ms, four of 32 rows 38 ms; on two workers six 21-row tasks
#: take 61 ms where the one 125-row task takes 34 (the sweep's GEMM
#: alone: 63-row blocks 76 GFLOP/s, 125-row ones 97).
MIN_TASK_ROWS = 100

#: Bytes per candidate triple (int64 row, int64 id, fp32 score).
TRIPLE_BYTES = 20

#: A reducer folds its pool back to ``k`` triples per row once the pool
#: outgrows this many times that size.
POOL_FACTOR = 2


def task_rows(
    n_rows: int, workers: int, morsel_rows: int, row_work: int | None = None
) -> int:
    """Rows of one task when ``n_rows`` are cut for ``workers`` workers.

    :data:`MORSELS_PER_WORKER` tasks a worker, at most ``morsel_rows``
    rows each.  With a row priced (``row_work`` multiply-adds: right rows
    x dim for a scan join) no task goes under :data:`MIN_TASK_WORK` or
    :data:`MIN_TASK_ROWS`, and a join with work to spare keeps its tasks
    at :data:`WIDE_TASK_ROWS` rows or over unless that leaves a worker
    without one: fewer tasks per worker first, then fewer tasks than
    workers, down to one — for one worker exactly as for many, which is
    what keeps a lone worker's score blocks wide.  One worker and no
    price means nothing to balance and nothing to size a cut by: its tasks
    are ``morsel_rows``.
    """
    if row_work is None and workers == 1:
        return morsel_rows
    n_tasks = workers * MORSELS_PER_WORKER
    if row_work is not None:
        by_work = n_rows * row_work // MIN_TASK_WORK
        affordable = min(by_work, n_rows // MIN_TASK_ROWS)
        if by_work > n_tasks:
            affordable = min(affordable, max(n_rows // WIDE_TASK_ROWS, workers))
        if affordable >= workers:  # whole rounds of workers
            affordable -= affordable % workers
        n_tasks = max(1, min(n_tasks, affordable))
    return max(1, min(morsel_rows, -(-n_rows // n_tasks)))


def blocks_per_cap_task(edge: int, row_bytes: int) -> int:
    """Left blocks of ``edge`` rows one cap task joins at once: as many as
    keep ``row_bytes`` of bound state a row within :data:`BLOCK_BYTES`,
    one at least.  A cap task's state is its rows' width in caps, not in
    right rows, so ``ejoin_vectors``' 1,000 left rows are one task."""
    return max(1, BLOCK_BYTES // (edge * row_bytes))


def worth_scheduling(work: int) -> bool:
    """Whether ``work`` multiply-adds repay one run on the engine's pool."""
    return work >= MIN_TASK_WORK


def scan_shape(
    n_left: int,
    n_right: int,
    *,
    batch_left: int | None = None,
    batch_right: int | None = None,
    buffer_budget_bytes: int | None = None,
    reserve_bytes_per_row: int = 0,
    survivor_bytes: int = 0,
    workers: int | None = None,
    morsel_rows: int | None = None,
    row_work: int | None = None,
) -> tuple[int, int]:
    """The ``(batch_left, batch_right)`` block a blocked scan runs — the
    one shape rule, in order:

    1. Explicit edges win: a pinned edge is clamped to the input, never to
       the budget or a cache.
    2. A budget caps derived edges, square-ish, after giving up the chunk
       maxima (one per :data:`CHUNK` cells), ``reserve_bytes_per_row``
       of reducer state per left row (at most half of it, or a large
       reserve would squeeze the block to a few columns) and
       ``survivor_bytes`` a cell (a re-scored threshold's candidates); it
       is split over the ``workers`` blocks resident at once unless it
       leaves one block.
    3. A left side nothing has cut yet is cut to a worker's task
       (:func:`task_rows`: ``morsel_rows`` bounds it, ``row_work`` prices
       a row).
    4. Derived edges are sized for the select pass: at most
       :data:`MAX_BLOCK_ROWS` rows, and a strip over :data:`BLOCK_BYTES`
       is cut to whole chunks within it, never under
       ``MIN_STRIDE * CHUNK`` columns.

    ``workers=None``: nobody runs the shape — no maxima, no split, steps
    3-4 skipped; what the edges and the Figure 7 budget alone allow.  A
    served scan is the rule with ``batch_left = n_queries``.
    """
    if (batch_left is not None and batch_left < 1) or (
        batch_right is not None and batch_right < 1
    ):
        raise BufferBudgetError(f"invalid batch shape ({batch_left}, {batch_right})")
    if n_left <= 0 or n_right <= 0:
        return max(n_left, 1), max(n_right, 1)

    def derive(budget: int | None) -> tuple[int, int]:
        bl, br = batch_left, batch_right
        if budget is not None and (bl is None or br is None):
            if workers is not None:
                budget = max(budget - budget // (CHUNK + 1), 1)
            cell_bytes = 4 + survivor_bytes
            cells = budget // cell_bytes
            if cells < 1:
                raise BufferBudgetError(
                    f"buffer budget {budget}B cannot hold one FP32 cell"
                )
            if bl is None:
                row_cost = max(reserve_bytes_per_row + cell_bytes, 2 * reserve_bytes_per_row)
                bl = max(1, min(n_left, math.isqrt(cells), budget // row_cost))
            free_cells = cells - bl * reserve_bytes_per_row // cell_bytes
            if free_cells < bl and batch_left is None:
                raise BufferBudgetError(
                    f"buffer budget {budget}B cannot hold one score column "
                    f"plus merge state for {bl} left rows"
                )
            if br is None:
                br = max(free_cells // bl, 1)
        uncut = batch_left is None and (bl is None or bl >= n_left)
        bl = n_left if bl is None else min(bl, n_left)
        br = n_right if br is None else min(br, n_right)
        if workers is None:
            return bl, br
        if uncut:
            rows = task_rows(n_left, workers, morsel_rows or n_left, row_work)
            bl = -(-n_left // -(-n_left // rows))  # the largest of even tasks
        if batch_left is None:
            bl = min(bl, MAX_BLOCK_ROWS)
        if batch_right is None and 4 * bl * br > BLOCK_BYTES:
            fit = BLOCK_BYTES // (4 * bl) // CHUNK * CHUNK
            br = min(br, max(fit, MIN_STRIDE * CHUNK))
        return bl, br

    bl, br = derive(buffer_budget_bytes)
    if buffer_budget_bytes is not None and (workers or 1) > 1 and bl < n_left:
        bl, br = derive(max(buffer_budget_bytes // workers, 1))
    return bl, br


def maxima_bytes(rows: int, width: int) -> int:
    """Bytes of the chunk maxima :func:`select_above` holds for a block."""
    stride = width // CHUNK
    return rows * stride * 4 if stride >= MIN_STRIDE else 0


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D mask: one flat scan plus a divmod, ~5x
    faster than the 2-D routine on the sparse masks a floor leaves."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def select_above(
    block: np.ndarray, floor, *, k: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells of ``block`` that reach their row's floor, in no set order.

    Args:
        block: ``(rows, width)`` scores, any strides (a transposed view
            costs no copy).
        floor: scalar, or one value per row.
        k: when given, each row's floor is first raised to its k-th
            largest chunk maximum (at least k of the row's cells reach
            it) — or, in a block with fewer than k chunks, to its k-th
            largest cell — so a top-k scan can gate a block before it
            has a floor.

    Returns:
        ``(rows, cols, scores)`` of every cell ``>=`` its row's floor.
    """
    if block.ndim != 2:
        raise DimensionalityError(f"expected 2-D scores, got ndim={block.ndim}")
    n, w = block.shape
    floor = np.broadcast_to(np.asarray(floor, dtype=block.dtype), (n,))
    stride = w // CHUNK
    chunked = stride >= MIN_STRIDE
    if chunked:
        head = stride * CHUNK
        chunks = block[:, :head].reshape(n, CHUNK, stride)
        maxima = chunks.max(axis=1)
    if k is not None and k < w:
        ranked, width = (maxima, stride) if chunked and k <= stride else (block, w)
        kth = np.partition(ranked, width - k, axis=1)[:, width - k]
        floor = np.maximum(kth, floor)
    if not chunked:
        rows, cols = _cells(block >= floor[:, None])
        return rows, cols, block[rows, cols]
    hit_r, hit_c = _cells(maxima >= floor[:, None])
    vals = chunks[hit_r, :, hit_c]
    pick, seg = _cells(vals >= floor[hit_r, None])
    rows = hit_r[pick]
    cols = seg * stride + hit_c[pick]
    scores = vals[pick, seg]
    if head < w:
        tail = block[:, head:]
        t_r, t_c = _cells(tail >= floor[:, None])
        rows = np.concatenate([rows, t_r])
        cols = np.concatenate([cols, t_c + head])
        scores = np.concatenate([scores, tail[t_r, t_c]])
    return rows, cols, scores


def _triple_order(rows: np.ndarray, ids: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """``np.lexsort((ids, -scores, rows))`` of fp32 ``scores`` — the
    reducer's total order — as sorts of one 64-bit key.

    The key is ``row << 32`` plus the fp32 bits of ``-score`` mapped to
    the signed integer of the same order (``-0.0`` first normalised to
    ``+0.0``, which the float compare calls equal).  Ids are only looked
    at inside runs of equal keys, where a second key — the run's number
    ``<< 32`` plus the id — restores ``id asc``; fp32 and int8 scores tie
    in almost no run.  12,500 triples sort in 0.4 ms where the three-key
    lexsort takes 2.6 (36,000: 1.2 vs 10.6).  A row past 2^31
    or an id outside ``[0, 2^32)`` does not fit a key: the lexsort itself
    runs.
    """
    if len(rows) and not (
        rows.max() < 1 << 31 and ids.min() >= 0 and ids.max() < 1 << 32
    ):
        return np.lexsort((ids, -scores, rows))
    bits = (-scores + np.float32(0.0)).view(np.int32)
    key = (rows.astype(np.int64) << 32) + (bits ^ ((bits >> 31) & 0x7FFFFFFF))
    order = np.argsort(key)
    key = key[order]
    same = key[1:] == key[:-1]
    if same.any():
        tied = np.flatnonzero(np.r_[False, same] | np.r_[same, False])
        run, key = order[tied], key[tied]
        number = np.cumsum(np.r_[True, key[1:] != key[:-1]])
        order[tied] = run[np.argsort((number << 32) + ids[run])]
    return order


def best_per_row(
    rows: np.ndarray, ids: np.ndarray, scores: np.ndarray, k: int, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each row's ``k`` best triples in ``(row, score desc, id
    asc)`` order, and of the ``k``-th of each row holding ``k``; one row
    (of ``n_rows``) sorts by ``np.lexsort((ids, -scores))``, whose float
    compare ties ``-0.0`` with ``+0.0`` as :func:`_triple_order`'s key does."""
    if n_rows == 1:
        order = np.lexsort((ids, -scores))
        return order[:k], order[k - 1 : k]
    order = _triple_order(rows, ids, scores)
    sorted_rows = rows[order]
    position = np.arange(len(rows))
    first = np.ones(len(rows), dtype=bool)  # a row's first sorted triple
    first[1:] = sorted_rows[1:] != sorted_rows[:-1]
    rank = position - np.maximum.accumulate(np.where(first, position, 0))
    return order[rank < k], order[rank == k - 1]


def fold_topk(parts: list[tuple], n_rows: int, k: int) -> tuple[np.ndarray, ...]:
    """Each row's ``k`` best of ``(rows, ids, scores)`` ``parts`` by
    ``(score desc, id asc)`` — the reducer's total order, so the fold does
    not depend on how the candidates were cut into parts or in which order
    parts arrive."""
    rows, ids, scores = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    scores = scores.astype(np.float32, copy=False)
    keep, _ = best_per_row(rows, ids, scores, max(1, k), n_rows)
    return rows[keep], ids[keep], scores[keep]


class TopKReducer:
    """Running per-row top-k over streamed score blocks.

    Holds ``(row, id, score)`` triples: at most ``k`` retained per row,
    sorted by ``(row, score desc, id asc)`` — a total order, so results do
    not depend on block shape or arrival order and score ties go to the
    smallest id — plus the survivors of recent blocks, folded in by one
    flat sort (:func:`best_per_row`) once they outgrow :data:`POOL_FACTOR`
    times the retained set.  ``floor[row]`` is the score a new cell must reach to
    matter: the row's k-th best as of the last fold, ``-inf`` until it
    holds k.

    Args:
        n_rows: rows of every block pushed.
        k: candidates kept per row.
    """

    def __init__(self, n_rows: int, k: int) -> None:
        if n_rows < 0:
            raise DimensionalityError(f"n_rows must be >= 0, got {n_rows}")
        if k < 1:
            raise DimensionalityError(f"k must be >= 1, got {k}")
        self.n_rows = n_rows
        self.k = k
        self.floor = np.full(n_rows, -np.inf, dtype=np.float32)
        self._cold = n_rows > 0
        self._cap = POOL_FACTOR * n_rows * k
        self._triples: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._size = 0
        self._folded = True  # nothing merged since the last fold
        #: Largest footprint so far beside the score block: chunk maxima
        #: plus pooled triples.
        self.peak_bytes = 0

    @staticmethod
    def state_bytes_per_row(k: int) -> int:
        """Budgeted reducer bytes per row, beside the score block.

        A full pool (:data:`POOL_FACTOR` ``* k`` triples) plus ``k``
        survivors of the block that overflows it.  One block's survivor
        count is data-dependent (:attr:`peak_bytes` records what was
        held); the sort temporaries of a fold are not charged.
        """
        return (POOL_FACTOR + 1) * k * TRIPLE_BYTES

    def push(self, block: np.ndarray, offset: int = 0) -> None:
        """Fold a score block whose column ``j`` is candidate ``offset + j``."""
        if block.shape[0] != self.n_rows:
            raise DimensionalityError(f"expected {self.n_rows} rows, got {block.shape[0]}")
        rows, cols, scores = select_above(block, self.floor, k=self.k if self._cold else None)
        self.merge(rows, cols + offset, scores, scratch=maxima_bytes(*block.shape))

    def merge(
        self,
        rows: np.ndarray,
        ids: np.ndarray,
        scores: np.ndarray,
        *,
        scratch: int = 0,
    ) -> None:
        """Add candidate triples; fold once the pool outgrows its cap."""
        self._triples.append((rows, ids, scores.astype(np.float32, copy=False)))
        self._size += len(rows)
        self._folded = False
        self.peak_bytes = max(self.peak_bytes, scratch + self._size * TRIPLE_BYTES)
        if self._size > self._cap or (self._cold and self._size >= self.n_rows * self.k):
            self._fold()

    def _fold(self) -> None:
        """Keep each row's ``k`` best triples and raise the floors."""
        triples = self._triples
        rows, ids, scores = triples[0] if len(triples) == 1 else map(np.concatenate, zip(*triples))
        keep, kth = best_per_row(rows, ids, scores, self.k, self.n_rows)
        self._triples = [(rows[keep], ids[keep], scores[keep])]
        self._size = len(keep)
        self._folded = True
        self.floor[rows[kth]] = np.maximum(self.floor[rows[kth]], scores[kth])
        self._cold = bool(np.isneginf(self.floor).any())

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, ids, scores)`` sorted by ``(row, score desc, id asc)``."""
        if not self._triples:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float32)
        if not self._folded:  # a scan that ends on a fold is already sorted
            self._fold()
        return self._triples[0]
