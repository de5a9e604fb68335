"""Alternating parent/change pairs of the end-to-end benchmark.

``benchmarks/e2e/repeat.py --against`` compares two *sets*; the protocol a
PR is judged by (ROADMAP, "How a PR claims a gain") wants the two
checkouts *interleaved*, so a slow stretch of the box falls on both.  This
runs every workload on the parent checkout and on this one, same seed,
order flipped each pair, saves both sets in ``repeat.py``'s format and
prints its table (second set = this checkout), per-pair wins, one row
per workload shape from each record's ``client.shape_p50_ms`` (normalised
median [q1, q3] a side, change vs parent, pairs the change won), and for a
``serve_*`` workload each side's raw ops/s before its caps land and after
(the median over runs of the median of ``client.slice_ops_per_s_raw``
over slices 1-2, and over slices 3-10)::

    python tools/pairs.py --parent /root/scratch/parent -n 5 --first-seed 2100 \\
        --save /root/scratch/pairs

Exit status is ``repeat.report``'s: non-zero when a spread or a difference
of medians exceeds its ``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "benchmarks" / "e2e"))

import repeat  # noqa: E402
import run  # noqa: E402


def one_run(root: Path, workload: str, seed: int) -> dict:
    e2e = root / "benchmarks" / "e2e"
    done = subprocess.run(
        [sys.executable, str(e2e / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=root,
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{root}: {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (e2e / "_out" / f"record-{workload}-seed{seed}-trace0.json").read_text()
    )
    return {"workload": workload, "seed": seed,
            "values": {name: m["value"] for name, m in result["metrics"].items()},
            "raw": record["raw"], "sizes": record["sizes"],
            "shapes": record["client"].get("shape_p50_ms", {}),
            "slices": record["client"]["slice_ops_per_s_raw"],
            "box_factor": record["client"]["box"]["factor"],
            "wall_s": record["wall_s"], "failed": result["failed"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("-n", type=int, default=5, help="pairs per workload")
    parser.add_argument("--first-seed", type=int, default=2100)
    parser.add_argument("--workload", action="append", help="only these (repeatable)")
    parser.add_argument("--save", type=Path, help="prefix for the two saved sets")
    args = parser.parse_args()
    contract = run.contract()
    names = args.workload or [w["name"] for w in contract["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": HERE}
    sets: dict[str, list[dict]] = {"parent": [], "change": []}
    seed = args.first_seed
    for pair in range(args.n):
        for workload in names:
            for side in (("parent", "change"), ("change", "parent"))[pair % 2]:
                done = one_run(sides[side], workload, seed)
                sets[side].append(done)
                print(f"# pair {pair} {side:6} {workload} seed {seed} box "
                      f"{done['box_factor']:.3f} op_ms_p50 "
                      f"{done['values'].get('op_ms_p50')}", file=sys.stderr, flush=True)
            seed += 1
    if args.save:
        for side, runs in sets.items():
            Path(f"{args.save}-{side}.json").write_text(json.dumps(
                {"runs": runs, "n": args.n, "smoke": False, "claim": None}, indent=1))
    ok = repeat.report(contract, sets["change"], sets["parent"])
    print("failed operations:", {s: sum(r["failed"] for r in runs) for s, runs in sets.items()})
    for workload in names:
        for metric in contract["end_to_end"]:
            pairs = zip(*(repeat.collect(sets[s], workload, metric["name"], "values")
                          for s in ("parent", "change")))
            worse = [repeat.worse_by(p, c, metric["better"]) for p, c in pairs]
            print(f"{workload:14} {metric['name']:12} change better in "
                  f"{sum(w < 0 for w in worse)}/{len(worse)} pairs")
    shape_table(sets, names)
    window_table(sets, [name for name in names if name.startswith("serve_")])
    return 0 if ok else 1


def shape_table(sets: dict[str, list[dict]], names: list[str]) -> None:
    """Per-shape medians: normalised ms, median [q1, q3] (linear
    percentiles) on each side, the change of medians, the pairs won."""
    print("| workload | shape | parent | change | change vs parent | change better |")
    print("|---|---|---|---|---|---|")
    for workload in names:
        shapes = sorted({s for r in sets["change"] if r["workload"] == workload for s in r["shapes"]})
        for shape in shapes:
            parent, change = (repeat.collect(sets[s], workload, shape, "shapes")
                              for s in ("parent", "change"))
            if not parent or len(parent) != len(change):
                continue
            quartiles = [np.percentile(v, [50, 25, 75]) for v in (parent, change)]
            cells = [f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for m, q1, q3 in quartiles]
            won = sum(c < p for p, c in zip(parent, change))
            print(f"| {workload} | {shape} | {cells[0]} | {cells[1]} "
                  f"| {100 * (quartiles[1][0] / quartiles[0][0] - 1):+.1f}% "
                  f"| {won}/{len(change)} |")


#: Timed slices before a served source's caps land (dense misses) and after.
WINDOWS = {"slices 1-2": slice(0, 2), "slices 3-10": slice(2, 10)}


def window_table(sets: dict[str, list[dict]], names: list[str]) -> None:
    """Raw ops/s a side in the build window and after it: a gain on the
    landed caps' misses shows in the second, a cheaper build in the first."""
    if not names:
        return
    print("| workload | window | parent ops/s | change ops/s | change vs parent |")
    print("|---|---|---|---|---|")
    for workload in names:
        for window, cut in WINDOWS.items():
            parent, change = (
                float(np.median([np.median(r["slices"][cut]) for r in sets[s]
                                 if r["workload"] == workload]))
                for s in ("parent", "change")
            )
            print(f"| {workload} | {window} | {parent:.1f} | {change:.1f} "
                  f"| {100 * (change / parent - 1):+.1f}% |")


if __name__ == "__main__":
    sys.exit(main())
