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
share, so uniform rows show what the decline saves).  Two more tables
follow on ``ejoin_vectors``-shaped rows: one cap task's time split into the
bound test (``caps.keep``), the two phases' calls of the list-major kernel
(``score_pairs``, ``kth_scores``, ``cells_over``: phase 1 is a top-k
task's first buffer, its k-th scores and the cells at them; phase 2 the
kept caps' buffers, run by run, and the cells at each row's floor) and the
rest (centre GEMM, nearest caps, runs, the fold), for 500 and 1,000 left
rows; and the 1,000-row join on a
2-thread engine as one cap task (``blocks_per_cap_task``) against two
500-row ones, interleaved, median and wins.  Then the one-row table behind
``caps.NEIGHBOURHOOD``: a served miss's one-pass row probe
(``caps.probe_by_rows``) on ``serve_scan``'s 150,000 x 128 corpus and
``ejoin_vectors``' 40,000 x 128 right side, for a top-10 at its own ``k``
and at ``k + 32`` (what a served top-10 asked before) and a threshold at
the 10th-best score, for neighbourhoods of 64-1,024 rows: median cells,
probe and served ms, rescans.  The last table, behind
``caps.ROW_MAJOR_ROWS``, times one cap task probed in each order
(``cap_join(probe=)``: row by row from the unit rows, cap by cap on the
cap-ordered copy) for 1-1,000 query rows on the same two right sides (a
top-10 or top-8, a threshold at the 10th- or 8th-best score), beside the
order ``cap_join`` picks::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_blocks.py --caps

``--access`` prints the table behind the access-path chooser's pick between
the IVF probe and the cap-bounded scan: on ``ejoin_vectors``-shaped rows
(40,000 x 128 around 256 centres, IVF ``nlist`` 128 / ``nprobe`` 8, then
``nprobe`` 1, which probes fewer rows than the caps keep), for
each ``n_left`` in {1, 8, 64, 256, 1000} and ``k`` in {1, 8, 32}, the IVF
join, the join on the cap partition and the dense join on one worker
(min of ``--repeat``, interleaved), the IVF's recall of the exact ids,
what ``choose_access_path`` picks with the partition cached, and its
regret: the pick's ms over the fastest of the three::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sweep_blocks.py --access
    PYTHONPATH=src python tools/sweep_blocks.py --access --quick   # CI: rot only
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import caps
from repro.core import scan as scan_module
from repro.core.conditions import ThresholdCondition, TopKCondition
from repro.core.cost_model import choose_access_path
from repro.core.index_join import index_join
from repro.core.eselect import select_group
from repro.core.scan import TOPK_PRESCREEN_PAD
from repro.core.tensor_join import dense_scorer, tensor_join
from repro.engine import ExecutionEngine
from repro.index import IVFFlatIndex
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


def sweep_cap_tasks(n_left, n_right, dim, repeat, rows):
    """The phase split of one cap task, and one task against two."""
    left, right = rows[:n_left], rows[n_left:]
    part = caps.build_caps(right)
    if part is None:
        print("\n(no partition: the source declined)")
        return
    eighth = np.sort(left[:128] @ right.T, axis=1)[:, -8]
    conditions = {"top-8": TopKCondition(8), "threshold": ThresholdCondition(float(np.median(eighth)))}
    spent: dict[str, float] = {}
    phases = ("bound test", "phase 1", "phase 2")
    names, now = ("keep", "score_pairs", "kth_scores", "cells_over"), {"phase": ""}
    originals = {name: getattr(caps, name) for name in names}
    for name, call in originals.items():
        def timed(*args, _call=call, _name=name, **kwargs):
            phase = "bound test" if _name == "keep" else now["phase"]
            start = time.perf_counter()
            try:
                return _call(*args, **kwargs)
            finally:
                spent[phase] = spent.get(phase, 0.0) + time.perf_counter() - start
                if _name == "cells_over":  # phase 1 ends with its one read of the cells
                    now["phase"] = "phase 2"
        setattr(caps, name, timed)
    print(f"\n## one cap task: {n_right} x {dim}, {len(part.radius)} caps, one thread, min of {repeat}")
    print("| condition | left rows | total ms | bound test ms | phase 1 ms | phase 2 ms | rest ms |")
    print("|---|---|---|---|---|---|---|")
    for label, condition in conditions.items():
        for n in sorted({n_left // 2, n_left}):
            best = None
            for _ in range(repeat):
                spent.clear()
                now["phase"] = "phase 1" if label == "top-8" else "phase 2"
                _, took = _timed(lambda: caps.cap_join(part, condition, left[:n], np.inf))
                if best is None or took < best[0]:
                    best = took, dict(spent)
            took, split = best
            cells = [1e3 * split.get(name, 0.0) for name in phases]
            print(f"| {label} | {n} | {1e3 * took:.1f} | "
                  + " | ".join(f"{c:.1f}" for c in cells) + f" | {1e3 * took - sum(cells):.1f} |")
    for name, call in originals.items():
        setattr(caps, name, call)
    engine, per_task = ExecutionEngine(n_threads=2), scan_module.blocks_per_cap_task
    print(f"\n## {n_left} x {n_right} x {dim} on 2 threads: one cap task vs one per dense block")
    print("| condition | one task ms | tasks | per-block tasks ms | tasks | one task better |")
    print("|---|---|---|---|---|---|")
    for label, condition in conditions.items():
        times: dict[bool, list[float]] = {True: [], False: []}
        tasks = {}
        for i in range(2 * repeat):
            for one in ((True, False), (False, True))[i % 2]:
                scan_module.blocks_per_cap_task = per_task if one else (lambda edge, row_bytes: 1)
                joined, took = _timed(lambda: tensor_join(
                    left, right, condition, assume_normalized=True, engine=engine, caps=part
                ))
                times[one].append(took)
                tasks[one] = joined.stats.extra["cap_tasks"]
        scan_module.blocks_per_cap_task = per_task
        wins = sum(a < b for a, b in zip(times[True], times[False]))
        print(f"| {label} | {1e3 * np.median(times[True]):.1f} | {tasks[True]} "
              f"| {1e3 * np.median(times[False]):.1f} | {tasks[False]} | {wins}/{2 * repeat} |")


def sweep_probe_orders(shapes, n_lefts, repeat):
    """One row per ``(shape, condition, query rows)``: one cap task probed
    row by row and cap by cap (min of ``repeat``, interleaved; the
    cap-ordered copy made beforehand), and the order ``cap_join`` picks."""
    print(f"\n## probe orders: one cap task, one thread, min of {repeat}")
    print("| shape | condition | query rows | rows ms | caps ms | faster | picked |")
    print("|---|---|---|---|---|---|---|")
    for name, rows, k in shapes:
        left, right = rows[: max(n_lefts)], rows[max(n_lefts) :]
        part = caps.build_caps(right)
        if part is None:
            print(f"\n({name}: no partition, the source declined)")
            continue
        part.packed()
        floor = float(np.sort(left[:32] @ right.T, axis=1)[:, -k].mean())
        conditions = {f"top-{k}": TopKCondition(k), "threshold": ThresholdCondition(floor)}
        for label, condition in conditions.items():
            for n in n_lefts:
                best = {"rows": np.inf, "caps": np.inf}
                for _ in range(repeat):
                    for probe in best:
                        scan, took = _timed(
                            lambda: caps.cap_join(part, condition, left[:n], np.inf, probe=probe)
                        )
                        best[probe] = min(best[probe], took)
                picked = caps.cap_join(part, condition, left[:n], np.inf).probe
                print(
                    f"| {name} | {label} | {n} | {1e3 * best['rows']:.2f} "
                    f"| {1e3 * best['caps']:.2f} | {min(best, key=best.get)} | {picked} |"
                )


def sweep_one_row(shapes, neighbourhoods, n_queries, repeat):
    """One row per ``(shape, request, neighbourhood)``: a served miss's
    one-pass row probe (``caps.probe_by_rows``) over ``n_queries`` query
    rows — median cells scored past the centres, the probes that declined
    (and scanned dense when served), probe ms and served ms (``select_group``:
    probe, exact re-score and proof) per query, min of ``repeat`` — and the
    rescans its floors left.  A top-10 at ``k`` is
    what a served top-10 asks; at ``k + 32``, what it asked before; a
    threshold (at the 10th-best score) scores no neighbourhood."""
    print(f"\n## one row: served misses on the caps, one thread, {n_queries} queries, min of {repeat}")
    print("| shape | request | neighbourhood | cells | declined | probe ms | served ms | rescans |")
    print("|---|---|---|---|---|---|---|---|")
    default = caps.NEIGHBOURHOOD
    for name, rows in shapes:
        queries, right = rows[:n_queries], rows[n_queries:]
        part = caps.build_caps(right)
        if part is None:
            print(f"\n({name}: no partition, the source declined)")
            continue
        floor = float(np.sort(queries[:32] @ right.T, axis=1)[:, -10].mean())
        requests = {
            "top-10 at k": (TopKCondition(10), 10, -np.inf),
            f"top-10 at k + {TOPK_PRESCREEN_PAD}": (
                TopKCondition(10 + TOPK_PRESCREEN_PAD), 10 + TOPK_PRESCREEN_PAD, -np.inf
            ),
            "threshold": (ThresholdCondition(floor), 0, floor - scan_module.PRESCREEN_MARGIN),
        }
        for label, (condition, k, low) in requests.items():
            for size in neighbourhoods if k else neighbourhoods[:1]:
                caps.NEIGHBOURHOOD = size

                def probe():
                    return [caps.probe_by_rows(part, q[None], [k], [low], np.inf) for q in queries]

                def served():
                    return [select_group(right, [q], [condition], caps=part).select(0)
                            for q in queries]

                scans, probe_s = min((_timed(probe) for _ in range(repeat)), key=lambda r: r[1])
                answers, served_s = min((_timed(served) for _ in range(repeat)), key=lambda r: r[1])
                ran = [scan.cells - len(part.radius) for scan in scans if scan is not None]
                print(
                    f"| {name} | {label} | {size if k else '-'} "
                    f"| {np.median(ran) if ran else np.nan:.0f} | {n_queries - len(ran)} "
                    f"| {1e3 * probe_s / n_queries:.3f} | {1e3 * served_s / n_queries:.3f} "
                    f"| {sum(answer[3] for answer in answers)} |"
                )
    caps.NEIGHBOURHOOD = default


def sweep_access(n_lefts, ks, lists, repeat, rows):
    """One row per ``(n_left, k)``: IVF, cap and dense ms, the pick, regret."""
    left, right = rows[: max(n_lefts)], rows[max(n_lefts) :]
    n_right, dim = right.shape
    index = IVFFlatIndex(dim, nlist=lists[0], nprobe=lists[1], seed=3)
    index.add(right)
    part, engine = caps.build_caps(right), ExecutionEngine(n_threads=1)
    if part is None:
        print("\n(no partition: the source declined)")
        return
    print(f"\n## access paths: {n_right} x {dim}, IVF nlist {lists[0]} nprobe {lists[1]}, "
          f"{len(part.radius)} caps (kept share {100 * part.kept_share:.2f}%), "
          f"one worker, min of {repeat}")
    print("| n_left | k | IVF ms | IVF recall | cap ms | dense ms | pick | regret |")
    print("|---|---|---|---|---|---|---|---|")
    for n_left in n_lefts:
        for k in ks:
            condition, queries = TopKCondition(k), left[:n_left]
            paths = {
                "IVF": lambda: index_join(queries, index, condition, engine=engine),
                "cap": lambda: tensor_join(
                    queries, right, condition, assume_normalized=True, engine=engine, caps=part
                ),
                "dense": lambda: tensor_join(
                    queries, right, condition, assume_normalized=True, engine=engine
                ),
            }
            best, got = {name: np.inf for name in paths}, {}
            for _ in range(repeat):
                for name, call in paths.items():
                    out, took = _timed(call)
                    best[name] = min(best[name], took)
                    if name != "dense":
                        got[name] = out
            exact = set(zip(got["cap"].left_ids.tolist(), got["cap"].right_ids.tolist()))
            found = set(zip(got["IVF"].left_ids.tolist(), got["IVF"].right_ids.tolist()))
            decision = choose_access_path(
                n_left, n_right, k, dim, caps=part.probe_terms(condition),
                index_lists=index.probe_terms(),
            )
            # A scan of a source with a partition runs on it.
            pick = "IVF" if decision.choice == "index" else "cap"
            declined = "" if got["cap"].stats.extra["cap_tasks"] else " (declined)"
            print(
                f"| {n_left} | {k} | {1e3 * best['IVF']:.2f} | {len(exact & found) / len(exact):.3f} "
                f"| {1e3 * best['cap']:.2f}{declined} | {1e3 * best['dense']:.2f} | {pick} "
                f"| {best[pick] / min(best.values()):.2f} |"
            )


def _timed(call):
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="toy sizes, one pass")
    parser.add_argument("--caps", action="store_true", help="the cap partition's table")
    parser.add_argument("--access", action="store_true", help="the IVF-vs-caps pick's table")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.access:
        if args.quick:
            rows = embedding_like_vectors(4208, 16, rank=16, seed=5)[0]
            sweep_access((1, 8), (1, 8), (16, 2), 1, rows)
        else:
            rows = ejoin_vectors_like(41_000, 128, 5)
            for lists in ((128, 8), (128, 1)):  # the benchmark's index, and a coarser probe
                sweep_access((1, 8, 64, 256, 1000), (1, 8, 32), lists, args.repeat, rows)
        return 0
    if args.caps or args.quick:
        per_cap = caps.ROWS_PER_CAP, caps.SAMPLE_PER_CAP, caps.CAP_ITERS
        settings = [(rows, *per_cap[1:]) for rows in (32, 64, 96, 128)] + [
            (64, sample, iters) for sample, iters in ((8, 3), (32, 3), (16, 1), (16, 5), (16, 10))
        ]
        if args.quick:
            sweep_caps(64, 4200, 16, 1, settings[:2])
            sweep_cap_tasks(200, 4200, 16, 1, embedding_like_vectors(4400, 16, rank=16, seed=5)[0])
            rows = embedding_like_vectors(4400, 16, rank=16, seed=5)[0]
            sweep_probe_orders([("toy", rows, 8)], (1, 8), 1)
            sweep_one_row([("toy", rows)], (64, 256), 8, 1)
        else:
            sweep_caps(500, 40_000, 128, args.repeat, settings)
            sweep_cap_tasks(1000, 40_000, 128, args.repeat, ejoin_vectors_like(41_000, 128, 5))
            # serve_scan's corpus at a served top-10 and a threshold at its
            # 10th-best score; ejoin_vectors' right side at top-8.
            serve_rows, join_rows = ejoin_vectors_like(151_000, 128, 5), ejoin_vectors_like(41_000, 128, 5)
            sweep_one_row([("serve_scan", serve_rows[:150_500]), ("ejoin_vectors", join_rows[:40_500])],
                          (64, 128, 256, 512, 1024), 500, args.repeat)
            shapes = [("serve_scan", serve_rows, 10), ("ejoin_vectors", join_rows, 8)]
            sweep_probe_orders(shapes, (1, 2, 4, 8, 16, 32, 256, 1000), args.repeat)
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
