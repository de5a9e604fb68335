"""Benchmark CLI: regenerate the paper's figures without remembering pytest
flags.

Usage::

    python -m repro.bench                # run every figure/table benchmark
    python -m repro.bench fig08 fig14    # run selected figures
    python -m repro.bench --list         # show available experiments
    python -m repro.bench --smoke        # minimal sizes (CI smoke run)

Engine knobs (``--threads``, ``--buffer-budget-mb``, ``--morsel-rows``)
are forwarded to the benchmark process through ``REPRO_*`` environment
variables, so figure runs exercise the morsel-driven engine exactly as
configured.  Reports are printed and persisted under ``bench_results/``.
These are *shape* reproductions of the paper's figures; regressions are
gated by ``benchmarks/e2e/run.py`` and ``repeat.py --against`` alone.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

#: Experiment id -> benchmark file (relative to the repo root).
EXPERIMENTS = {
    "table1": "test_table1_scan_vs_index.py",
    "table2": "test_table2_semantic_matching.py",
    "fig08": "test_fig08_logical_optimization.py",
    "fig09": "test_fig09_scalability.py",
    "fig10": "test_fig10_input_sizes.py",
    "fig11": "test_fig11_tensor_vs_nlj.py",
    "fig12": "test_fig12_batching.py",
    "fig13": "test_fig13_minibatch.py",
    "fig14": "test_fig14_tensor_vs_nlj_e2e.py",
    "fig15": "test_fig15_topk1_selectivity.py",
    "fig16": "test_fig16_topk32_selectivity.py",
    "fig17": "test_fig17_range_selectivity.py",
    "fig_quant": "test_fig_quant.py",
    "ablation-normalization": "test_ablation_normalization.py",
    "ablation-eselection": "test_ablation_eselection_cost.py",
    "ablation-fp16": "test_ablation_fp16.py",
    "ablation-model-cost": "test_ablation_model_cost.py",
}


def find_benchmarks_dir() -> Path:
    """Locate the benchmarks/ directory (repo checkout layouts only)."""
    here = Path.cwd()
    for candidate in (here, *here.parents):
        bench = candidate / "benchmarks"
        if bench.is_dir() and any(bench.glob("test_fig*.py")):
            return bench
    raise SystemExit(
        "benchmarks/ directory not found; run from the repository checkout"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. fig08 table2); default: all",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every scenario at minimal sizes (fast CI sanity pass)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="engine worker count (default: all CPUs)",
    )
    parser.add_argument(
        "--buffer-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="Figure 7 buffer budget for dense join intermediates",
    )
    parser.add_argument(
        "--morsel-rows",
        type=int,
        default=None,
        metavar="ROWS",
        help="maximum tuples per engine morsel",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    bench_dir = find_benchmarks_dir()
    selected = args.experiments or list(EXPERIMENTS)
    files = []
    for name in selected:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; use --list to see options"
            )
        files.append(str(bench_dir / EXPERIMENTS[name]))

    env = dict(os.environ)
    if args.smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    if args.threads is not None:
        env["REPRO_THREADS"] = str(max(1, args.threads))
    if args.buffer_budget_mb is not None:
        if args.buffer_budget_mb <= 0:
            parser.error("--buffer-budget-mb must be positive")
        env["REPRO_BUFFER_BUDGET_MB"] = str(args.buffer_budget_mb)
    if args.morsel_rows is not None:
        env["REPRO_MORSEL_ROWS"] = str(max(1, args.morsel_rows))

    command = [
        sys.executable,
        "-m",
        "pytest",
        *files,
        "-q",
        "-s",
        "-p",
        "no:cacheprovider",
    ]
    return subprocess.call(command, env=env)


if __name__ == "__main__":
    raise SystemExit(main())
