"""Benchmark harness for reproducing the paper's figures and tables."""

from .harness import FigureReport, speedup, time_call

__all__ = [
    "FigureReport",
    "speedup",
    "time_call",
]
