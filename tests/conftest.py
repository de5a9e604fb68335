"""Shared test fixtures."""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads the library (the configuration
# the engine's own morsel parallelism and the e2e benchmark assume).  A
# threaded OpenBLAS call on a small contended box can stall a scheduler
# quantum — a flat 8 ms for a 256x256x32 GEMM — which is what
# test_calibration measures when this is left to the machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings as _hypothesis_settings  # noqa: E402

# Property tests explore deterministically so the tier-1 gate cannot flake
# on a lucky random walk; per-test @settings still override other fields.
_hypothesis_settings.register_profile("deterministic", derandomize=True)
_hypothesis_settings.load_profile("deterministic")

from repro.embedding import HashingEmbedder  # noqa: E402
from repro.relational import DataType, Field, Schema, Table  # noqa: E402
from repro.workloads import unit_vectors  # noqa: E402


@pytest.fixture()
def small_vectors() -> tuple[np.ndarray, np.ndarray]:
    """Two small, deterministic unit-vector relations."""
    left = unit_vectors(30, 8, seed=101)
    right = unit_vectors(40, 8, seed=202)
    return left, right


@pytest.fixture()
def hash_model() -> HashingEmbedder:
    return HashingEmbedder(dim=16, seed=7)


@pytest.fixture()
def people_table() -> Table:
    schema = Schema.of(
        Field("id", DataType.INT64),
        Field("name", DataType.STRING),
        Field("age", DataType.INT64),
        Field("score", DataType.FLOAT64),
    )
    rows = [
        {"id": 1, "name": "ada", "age": 36, "score": 9.5},
        {"id": 2, "name": "bob", "age": 41, "score": 7.25},
        {"id": 3, "name": "cyd", "age": 29, "score": 8.0},
        {"id": 4, "name": "dan", "age": 36, "score": 5.5},
        {"id": 5, "name": "eve", "age": 52, "score": 6.75},
    ]
    return Table.from_dicts(schema, rows)
