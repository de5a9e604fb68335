"""Benchmark harness for reproducing the paper's figures and tables."""

from .harness import RESULTS_DIR, FigureReport, git_revision, speedup, time_call

__all__ = [
    "FigureReport",
    "RESULTS_DIR",
    "git_revision",
    "speedup",
    "time_call",
]
