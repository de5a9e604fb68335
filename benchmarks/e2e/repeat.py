"""Run the benchmark N times per workload and judge its own repeatability.

    python3 benchmarks/e2e/repeat.py -n 10 --save a.json
    python3 benchmarks/e2e/repeat.py -n 10 --against a.json

Workloads alternate within a round (so a slow stretch of the box falls on
all of them) and every run gets a new seed: a fresh set starts at seed 1000,
a set run ``--against`` another continues after that set's last seed.  For
each end-to-end metric x workload it prints the median, the quartiles and the
inter-quartile spread as a share of the median — at nominal box speed and
raw — beside the bound ``BENCHMARK.json`` fixes, and with ``--against`` both
sets' medians and how much worse the second is.  It exits non-zero when a
set's spread (``setup_s`` excepted, as in the driver's rule) or the
difference of medians exceeds the bound.  A row whose raw numbers give the
other verdict is marked ``RAW?``: the box factor decided it, so it is not to
be trusted on the normalised number alone.  Smoke numbers are refused (they
measure nothing), and so is a saved set taken with other frozen sizes (it
measured other work).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

FIRST_SEED = 1000


def one_run(workload: str, seed: int) -> dict:
    code, result, stderr = run.invoke(workload, seed, 0)
    if code:
        sys.stderr.write(stderr)
        raise SystemExit(f"{workload} seed {seed} exited {code}")
    record = json.loads(
        (HERE / "_out" / f"record-{workload}-seed{seed}-trace0.json").read_text()
    )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"workload": workload, "seed": seed, "values": values,
            "raw": record["raw"], "sizes": record["sizes"],
            "box_factor": record["client"]["box"]["factor"],
            "wall_s": record["wall_s"]}


def load_baseline(path: Path, sizes: dict) -> list[dict]:
    """The saved set's runs, refused unless they measured the same work."""
    saved = json.loads(path.read_text())
    if saved.get("smoke"):
        raise SystemExit("refusing smoke numbers: toy sizes measure nothing")
    for r in saved["runs"]:
        if r.get("sizes") != sizes[r["workload"]]:
            raise SystemExit(
                f"refusing {path}: its {r['workload']} runs used other frozen "
                f"sizes than workloads.py has now ({r.get('sizes')})"
            )
    return saved["runs"]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, iqr share of the median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def collect(runs: list[dict], workload: str, metric: str, key: str) -> list[float]:
    return [
        r[key][metric] for r in runs if r["workload"] == workload and metric in r[key]
    ]


def report(contract: dict, runs: list[dict], baseline: list[dict] | None) -> bool:
    """Print the table; ``True`` when everything is inside its bound."""
    ok = True
    header = (f"{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'iqr%':>6} {'raw iqr%':>8} {'bound%':>6}")
    if baseline is not None:
        header += f" {'first med':>10} {'worse%':>7} {'raw worse%':>10}"
    print(header)
    for w in [wl["name"] for wl in contract["workloads"]]:
        for m in contract["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            values = collect(runs, w, name, "values")
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            raw_values = collect(runs, w, name, "raw")
            raw_share = spread(raw_values)[3] if raw_values else float("nan")
            judged = name != "setup_s"  # the driver's rule leaves its spread out
            verdict = ["SPREAD"] if judged and share > bound else []
            raw_differs = bool(judged and raw_values) and (
                (raw_share > bound) != (share > bound)
            )
            line = (f"{w:14} {name:12} {median:10.4f} {q1:10.4f} {q3:10.4f} "
                    f"{100 * share:6.2f} {100 * raw_share:8.2f} {100 * bound:6.1f}")
            if baseline is not None:
                first = statistics.median(collect(baseline, w, name, "values"))
                diff = worse_by(first, median, better)
                raw_diff = float("nan")
                if raw_values:
                    first_raw = statistics.median(collect(baseline, w, name, "raw"))
                    raw_diff = worse_by(first_raw, statistics.median(raw_values), better)
                    raw_differs |= (raw_diff > bound) != (diff > bound)
                if diff > bound:
                    verdict.append("MEDIANS")
                line += f" {first:10.4f} {100 * diff:7.2f} {100 * raw_diff:10.2f}"
            ok &= not verdict
            if raw_differs:
                verdict.append("RAW?")
            print(line + ("  <-- " + "+".join(verdict) if verdict else ""))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=10, help="runs per workload")
    parser.add_argument("--save", type=Path, help="write this set here")
    parser.add_argument("--against", type=Path, help="compare with a saved set")
    args = parser.parse_args(argv)

    run.pin_environment()  # puts the program and the benchmark on the path
    import workloads

    contract = run.contract()
    baseline, seed = None, FIRST_SEED
    if args.against:
        baseline = load_baseline(args.against, workloads.FULL)
        seed = max(r["seed"] for r in baseline) + 1
    names = [w["name"] for w in contract["workloads"]]
    runs = []
    for round_ in range(args.n):
        for workload in names:
            done = one_run(workload, seed)
            runs.append(done)
            print(f"# round {round_} {workload} seed {seed} box "
                  f"{done['box_factor']:.3f} wall {done['wall_s']:.1f}s",
                  file=sys.stderr, flush=True)
            seed += 1
    ok = report(contract, runs, baseline)
    summary = {"runs": runs, "n": args.n, "smoke": False, "ok": ok, "claim": None}
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
