"""Benchmark harness: timing, series collection, paper-style tables.

Each figure benchmark produces a series of (x, series-name, time) rows; the
harness renders them as aligned text tables mirroring what the paper plots,
and persists them under ``bench_results/`` so README "Benchmarks" can
quote measured numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Where figure reports are written (relative to the repo root / CWD).
RESULTS_DIR = Path("bench_results")


def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _config_snapshot() -> dict:
    """Engine knobs and machine environment of this benchmark process."""
    from ..config import cpu_count, get_config

    config = get_config()
    return {
        "seed": config.seed,
        "threads": cpu_count(),
        # What the process may run on: the affinity mask where the OS has one.
        "cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "morsel_rows": config.default_morsel_rows,
        "buffer_budget_bytes": config.default_buffer_budget_bytes,
        "smoke": os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0"),
    }


def _jsonable(value):
    """Coerce NumPy scalars and other non-JSON values to plain Python."""
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def results_dir() -> Path:
    """Report directory; smoke runs divert to a subdirectory so their toy
    numbers never overwrite full-scale results."""
    if os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0"):
        return RESULTS_DIR / "smoke"
    return RESULTS_DIR


def time_call(fn, *args, repeat: int = 1, **kwargs) -> tuple[object, float]:
    """Run ``fn`` ``repeat`` times; return (last result, best seconds)."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


@dataclass
class FigureReport:
    """Accumulates rows for one figure/table and renders them."""

    figure: str
    title: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, expected {len(self.columns)}"
            )
        self.rows.append(tuple(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        table = [[fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in table))
            if table
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [f"== {self.figure}: {self.title} =="]
        header = "  ".join(
            c.ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for r in table:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: Path | None = None) -> Path:
        directory = results_dir() if directory is None else directory
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.figure.lower().replace(' ', '_')}.txt"
        path.write_text(self.render() + "\n", encoding="utf-8")
        return path

    def to_json(self) -> dict:
        """Machine-readable report: rows plus run provenance.

        Wall times live in the rows (whatever time columns the scenario
        measures); ``config`` and ``git_rev`` pin down the engine knobs,
        the machine (usable CPUs, BLAS threads as set) and the code
        revision they were measured at: a number carries its environment.
        """
        return {
            "figure": self.figure,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [_jsonable(row) for row in self.rows],
            "notes": list(self.notes),
            "config": _config_snapshot(),
            "git_rev": git_revision(),
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }

    def save_json(self, directory: Path | None = None) -> Path:
        """Persist the machine-readable ``BENCH_<figure>.json`` twin."""
        directory = results_dir() if directory is None else directory
        directory.mkdir(parents=True, exist_ok=True)
        name = self.figure.lower().replace(" ", "_")
        path = directory / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8"
        )
        return path

    def emit(self) -> None:
        """Print and persist (the standard end-of-benchmark call)."""
        text = self.render()
        print("\n" + text)
        self.save()
        self.save_json()


def speedup(baseline_s: float, optimized_s: float) -> float:
    """baseline / optimized (>1 means the optimization helped)."""
    if optimized_s <= 0:
        return float("inf")
    return baseline_s / optimized_s
