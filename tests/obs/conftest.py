"""Fixtures for the observability test suite.

The engine/corpus helpers live in ``tests/service/_service_utils.py``;
this conftest puts that directory on ``sys.path`` so the obs tests reuse
them instead of growing a divergent copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "service"))

from _service_utils import DIM, make_engine  # noqa: E402

from repro.workloads import unit_vectors  # noqa: E402


@pytest.fixture
def obs_engine():
    return make_engine()


@pytest.fixture
def query_vectors():
    return unit_vectors(32, DIM, stream="obs-tests/queries")
