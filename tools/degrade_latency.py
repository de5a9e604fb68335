"""Full served selection vs the QoS degraded one, on `serve_scan`'s corpus.

Builds the `serve_scan` workload's corpus and service
(``benchmarks/e2e/workloads.py``, full size: 150,000 x 128), forces the
degrade decision (the full-precision estimate reads 10 s against a 5 s
deadline) and times ``submit_qos`` on the calling thread, interleaving a
full and a degraded query per pair, each on its own never-seen vector, for
top-10 and range selections.  Prints p50 [q1, q3] per shape, the ratio,
the degraded precision and how many degraded answers have the exact ids::

    python tools/degrade_latency.py --seed 1 -n 60
    python tools/degrade_latency.py --seed 1 -n 60 --min-recall 0.99
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-n", type=int, default=60, help="queries per shape and mode")
    parser.add_argument("--min-recall", type=float, default=0.5)
    args = parser.parse_args()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("REPRO_THREADS", "2")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]
    import numpy as np
    import workloads

    w = workloads.ServeScan(workloads.FULL["serve_scan"], args.seed)
    w.setup()
    service = w.service
    estimate = service.qos_tracker.estimate
    service.qos_tracker.estimate = lambda mode: 10.0 if mode == "full" else estimate(mode)
    shapes = {"top-10": dict(top_k=10), "range": dict(threshold=w.threshold)}
    times = {(shape, mode): [] for shape in shapes for mode in ("full", "degraded")}
    exact = dict.fromkeys(shapes, 0)
    precision = None

    def degraded(vector, terms):
        return service.submit_qos(
            w.builder(vector, terms), deadline_s=5.0, min_recall=args.min_recall
        )

    degraded(w.vector_of(2 * args.n), shapes["top-10"])  # builds the code store
    for i in range(args.n):
        for shape, terms in shapes.items():
            vectors = {"full": w.vector_of(2 * i), "degraded": w.vector_of(2 * i + 1)}
            for mode in ("full", "degraded") if i % 2 == 0 else ("degraded", "full"):
                start = time.perf_counter()
                if mode == "full":
                    response = service.submit_qos(w.builder(vectors[mode], terms))
                else:
                    response = degraded(vectors[mode], terms)
                times[(shape, mode)].append(time.perf_counter() - start)
                if mode == "degraded":
                    assert response.degraded
                    precision = response.precision
                    want = w.builder(vectors[mode], terms).execute().array("id")
                    exact[shape] += want.tolist() == response.table.array("id").tolist()
    w.teardown()
    for shape in shapes:
        line = []
        for mode in ("full", "degraded"):
            ms = 1e3 * np.array(times[(shape, mode)])
            q1, q3 = np.percentile(ms, [25, 75])
            line.append(f"{mode} {statistics.median(ms):.2f} [{q1:.2f}, {q3:.2f}] ms")
        ratio = statistics.median(times[(shape, "degraded")]) / statistics.median(
            times[(shape, "full")]
        )
        print(
            f"seed {args.seed} {shape:6s} {'  '.join(line)}  ratio {ratio:.2f}x  "
            f"degraded to {precision}, exact ids {exact[shape]}/{args.n}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
