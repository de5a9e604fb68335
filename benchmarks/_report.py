"""Figure reports: timing, paper-style text tables, one provenance line.

Each figure benchmark produces a series of rows; :class:`FigureReport`
renders them as an aligned text table mirroring what the paper plots and
persists it under ``bench_results/``, ending with the environment the
numbers were measured in — the dict ``benchmarks/e2e/harness.py`` records
with every end-to-end run, in the same JSON form — so README
"Benchmarks" quotes numbers that carry their box.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from _smoke import SMOKE
from e2e.harness import environment

ROOT = Path(__file__).resolve().parents[1]
#: Where figure reports are written; smoke runs divert to ``smoke/`` so
#: their toy numbers never overwrite full-scale results.
RESULTS_DIR = ROOT / ("bench_results/smoke" if SMOKE else "bench_results")


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


def speedup(baseline_s: float, optimized_s: float) -> float:
    """baseline / optimized (>1 means the optimization helped)."""
    if optimized_s <= 0:
        return float("inf")
    return baseline_s / optimized_s


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

    def save(self, directory: Path = RESULTS_DIR) -> Path:
        """Write the rendered table, then one provenance line: ``env:``
        and the environment as JSON."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.figure.lower().replace(' ', '_')}.txt"
        env = json.dumps(environment(ROOT))
        path.write_text(f"{self.render()}\nenv: {env}\n", encoding="utf-8")
        return path

    def emit(self) -> None:
        """Print and persist (the standard end-of-benchmark call)."""
        print("\n" + self.save().read_text(encoding="utf-8"), end="")
