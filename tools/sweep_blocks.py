"""The ``(left edge x width)`` table behind ``repro.vector.select``'s
shape constants.

One thread runs a whole top-k scan join — every left block of ``edge``
rows against every right block of ``width`` rows, through the same
``dense_scorer`` / ``Int8Quantizer.scorer`` / ``TopKReducer`` the
operators use — and splits the wall time three ways::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_blocks.py
    PYTHONPATH=src python tools/sweep_blocks.py --quick      # CI: rot only

``gemm`` is the time inside ``score_block`` (for int8 that includes the
cast of the code block), reported as GFLOP/s over the join's
``2 * n_left * n_right * dim`` flops; ``select`` is ``TopKReducer.push``
less its folds (the chunk-max pass and the gather); ``fold`` is
``TopKReducer._fold``.  Widths are the whole-chunk width that fits each
block size at that edge, plus the whole strip.  Each cell is the minimum
of ``--repeat`` passes; nothing is asserted — the table is what the
docstrings in ``vector/select.py`` quote, row by row.

``--caps`` prints the table behind ``repro.core.caps``' constants
instead: for rows per cap 32-128 (and, at 64, other sample sizes and
k-means iterations), on ``ejoin_vectors``-shaped, ``embedding_like_vectors``
and uniform rows, the partition's build ms, the share of a top-8 join's
cells its bounds keep, and the 500 x 40,000 x 128 join on one thread
dense and on the caps (min of ``--repeat``; no task declines for its
share, so uniform rows show what the decline saves)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_blocks.py --caps
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import caps
from repro.core.conditions import TopKCondition
from repro.core.scan import TOPK_PRESCREEN_PAD
from repro.core.tensor_join import dense_scorer, tensor_join
from repro.vector.norms import normalize_rows
from repro.vector.quant import Int8Quantizer
from repro.vector.select import CHUNK, MIN_STRIDE, TopKReducer
from repro.workloads.synthetic import clustered_vectors, embedding_like_vectors, unit_vectors

#: ``(n_left, n_right, dim, k)``: the ``ejoin_vectors`` join and the
#: ``ejoin_strings`` one (distinct left strings x catalog).
JOINS = ((1000, 40_000, 128, 8), (834, 8000, 64, 1))
BLOCK_MIB = (2, 4, 8, 16, 32)

class TimedReducer(TopKReducer):
    fold_s = 0.0

    def _fold(self) -> None:
        start = time.perf_counter()
        super()._fold()
        self.fold_s += time.perf_counter() - start


def one_pass(left, n_right, scorer, keep, edge, width):
    """``(gemm_s, select_s, fold_s)`` of one join in ``edge x width`` blocks."""
    gemm = select = fold = 0.0
    for l0 in range(0, len(left), edge):
        lb = left[l0 : l0 + edge]
        score_block, _ = scorer(lb, width)
        reducer = TimedReducer(len(lb), keep)
        for r0 in range(0, n_right, width):
            t0 = time.perf_counter()
            scores = score_block(r0, min(r0 + width, n_right))
            t1 = time.perf_counter()
            reducer.push(scores, r0)
            gemm += t1 - t0
            select += time.perf_counter() - t1
        t0 = time.perf_counter()
        reducer.finalize()
        select += time.perf_counter() - t0
        fold += reducer.fold_s
    return gemm, select - fold, fold


def widths_for(edge: int, n_right: int) -> list[int]:
    fits = {
        max((mib << 20) // (4 * edge) // CHUNK * CHUNK, MIN_STRIDE * CHUNK)
        for mib in BLOCK_MIB
    }
    return sorted({min(w, n_right) for w in fits} | {n_right})


def sweep(n_left, n_right, dim, k, edges, repeat):
    # Both sides around the same 256 centroids, like the benchmark's.
    rows, _ = clustered_vectors(n_left + n_right, dim, n_clusters=256, seed=24)
    left, right = rows[:n_left], rows[n_left:]
    quantizer = Int8Quantizer(dim).fit(right)
    codes = quantizer.encode(right)

    def int8_scorer(lb, width):
        score, bias = quantizer.scorer(lb)
        return (lambda r0, r1: score(codes[r0:r1])), bias

    flops = 2.0 * n_left * n_right * dim
    print(f"\n## {n_left} x {n_right} x {dim}, top-{k}, one thread, min of {repeat}")
    print("| repr | edge | width | block MiB | GEMM GFLOP/s | gemm ms | select ms | fold ms | total ms |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, scorer, keep in (
        ("fp32", dense_scorer(right), k),
        ("int8", int8_scorer, k + TOPK_PRESCREEN_PAD),  # what a row keeps for its proof
    ):
        for edge in edges:
            for width in widths_for(edge, n_right):
                best = min(
                    (one_pass(left, n_right, scorer, keep, edge, width) for _ in range(repeat)),
                    key=sum,
                )
                gemm, select, fold = (1e3 * s for s in best)
                print(
                    f"| {name} | {edge} | {width} | {4 * edge * width / 2**20:.1f} "
                    f"| {flops / best[0] / 1e9:.0f} | {gemm:.1f} | {select:.1f} "
                    f"| {fold:.1f} | {gemm + select + fold:.1f} |"
                )


def ejoin_vectors_like(n: int, dim: int, seed: int) -> np.ndarray:
    """Unit rows scattered around 256 centres, as ``ejoin_vectors``'
    generator draws them (noise of norm ~0.6 against a unit centre)."""
    rng = np.random.default_rng(seed)
    centres = normalize_rows(rng.standard_normal((256, dim)).astype(np.float32))
    noise = rng.standard_normal((n, dim), dtype=np.float32) * (0.6 / dim**0.5)
    return normalize_rows(centres[rng.permutation(np.arange(n) % 256)] + noise)


def sweep_caps(n_left, n_right, dim, repeat, settings):
    """One row per ``(data, rows per cap, sample per cap, iterations)``."""
    data = {
        "ejoin_vectors": ejoin_vectors_like(n_left + n_right, dim, 5),
        "embedding_like": embedding_like_vectors(n_left + n_right, dim, rank=min(48, dim), seed=5)[0],
        "uniform": unit_vectors(n_left + n_right, dim, seed=5),
    }
    condition = TopKCondition(8)
    print(f"\n## caps: {n_left} x {n_right} x {dim}, top-8, one thread, min of {repeat}")
    print("| data | rows/cap | sample/cap | iters | caps | build ms | kept % | dense ms | caps ms |")
    print("|---|---|---|---|---|---|---|---|---|")
    default = (caps.ROWS_PER_CAP, caps.SAMPLE_PER_CAP, caps.CAP_ITERS, caps.DECLINE_SHARE)
    for name, rows in data.items():
        left, right = rows[:n_left], rows[n_left:]
        dense = min(
            _timed(lambda: tensor_join(left, right, condition, assume_normalized=True))[1]
            for _ in range(repeat)
        )
        for per_cap, sample, iters in settings:
            if name == "uniform" and (sample, iters) != default[1:3]:
                continue
            # Nothing declined, so every row reports what its bounds keep.
            caps.ROWS_PER_CAP, caps.SAMPLE_PER_CAP, caps.CAP_ITERS = per_cap, sample, iters
            caps.DECLINE_SHARE = 1.0
            part, build = min((_timed(lambda: caps.build_caps(right)) for _ in range(repeat)),
                              key=lambda run: run[1])
            joined, took = min(
                (_timed(lambda: tensor_join(
                    left, right, condition, assume_normalized=True, caps=part
                )) for _ in range(repeat)),
                key=lambda run: run[1],
            )
            # What the bounds keep of the whole left side's cells, however
            # the join's tasks fared (a task whose bounds outgrow its dense
            # block joins dense: "(dense)").
            scan = caps.cap_join(part, condition, left, np.inf)
            n_caps = len(part.starts) - 1
            kept = (scan.cells - n_left * n_caps) / (n_left * n_right)
            dense_tasks = "" if joined.stats.extra["cap_tasks"] else " (dense)"
            print(
                f"| {name} | {per_cap} | {sample} | {iters} | {n_caps} | {1e3 * build:.0f} "
                f"| {100 * kept:.2f} | {1e3 * dense:.1f} | {1e3 * took:.1f}{dense_tasks} |"
            )
    caps.ROWS_PER_CAP, caps.SAMPLE_PER_CAP, caps.CAP_ITERS, caps.DECLINE_SHARE = default


def _timed(call):
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="toy sizes, one pass")
    parser.add_argument("--caps", action="store_true", help="the cap partition's table")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.caps or args.quick:
        per_cap = caps.ROWS_PER_CAP, caps.SAMPLE_PER_CAP, caps.CAP_ITERS
        settings = [(rows, *per_cap[1:]) for rows in (32, 64, 96, 128)] + [
            (64, sample, iters) for sample, iters in ((8, 3), (32, 3), (16, 1), (16, 5), (16, 10))
        ]
        if args.quick:
            sweep_caps(64, 4200, 16, 1, settings[:2])
        else:
            sweep_caps(500, 40_000, 128, args.repeat, settings)
            return 0
    if args.quick:
        sweep(96, 3000, 16, 2, (24, 48, 96), 1)
        return 0
    for n_left, n_right, dim, k in JOINS:
        edges = sorted({-(-n_left // parts) for parts in (16, 8, 4, 2, 1)})
        sweep(n_left, n_right, dim, k, edges, args.repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
