"""Alternating parent/change pairs of the end-to-end benchmark.

``benchmarks/e2e/repeat.py --against`` compares two *sets*; the protocol a
PR is judged by (ROADMAP, "How a PR claims a gain") wants the two
checkouts *interleaved*, so a slow stretch of the box falls on both.  This
runs every workload on the parent checkout and on this one, same seed,
order flipped each pair, saves both sets in ``repeat.py``'s format and
prints its table (second set = this checkout) plus per-pair wins::

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
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
