"""Morsel-driven parallel execution engine (Section V-A at system scope).

The engine unifies what the seed implemented per operator: partitioning
(:mod:`~repro.engine.morsel`) and a fork-join over one persistent thread
pool per engine (:mod:`~repro.engine.executor`).  Physical join operators in
:mod:`repro.core` execute through an
:class:`~repro.engine.executor.ExecutionEngine` rather than owning thread
pools themselves; block shapes come from the one rule in
:func:`repro.vector.select.scan_shape`, fed the engine's worker count,
morsel size and buffer budget.
"""

from .executor import ExecutionEngine, serial_engine
from .morsel import partition_rows

__all__ = [
    "ExecutionEngine",
    "partition_rows",
    "serial_engine",
]
