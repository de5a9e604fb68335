"""Fixtures for the chaos suite: clean reliability state per test.

Every test here installs the process-wide fault injector, so each one
starts and ends with it cleared — a leaked injector would poison whatever
test runs next.  Breaker state needs no clearing: it lives on the engine
(or context) each test builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from _chaos_utils import DIM
from repro.reliability.faults import clear_injector
from repro.workloads import unit_vectors


@pytest.fixture(autouse=True)
def _clean_reliability_state():
    clear_injector()
    yield
    clear_injector()


@pytest.fixture()
def query_vectors() -> np.ndarray:
    return unit_vectors(32, DIM, stream="chaos/queries")
