"""Unit tests for global configuration and seeding."""

import numpy as np
import pytest

from repro.config import ReproConfig, configure, cpu_count, get_config, rng


class TestStreams:
    def test_same_stream_same_values(self):
        a = rng("stream-a").standard_normal(4)
        b = rng("stream-a").standard_normal(4)
        assert np.allclose(a, b)

    def test_different_streams_differ(self):
        a = rng("stream-a").standard_normal(4)
        b = rng("stream-b").standard_normal(4)
        assert not np.allclose(a, b)

    def test_seed_changes_streams(self):
        original = get_config().seed
        try:
            configure(seed=1)
            a = rng("s").standard_normal(4)
            configure(seed=2)
            b = rng("s").standard_normal(4)
            assert not np.allclose(a, b)
        finally:
            configure(seed=original)

    def test_stream_seed_deterministic(self):
        cfg = ReproConfig(seed=5)
        assert cfg.stream_seed("x") == cfg.stream_seed("x")
        assert cfg.stream_seed("x") != cfg.stream_seed("y")

    def test_cpu_count_positive(self):
        assert cpu_count() >= 1

    def test_cpu_count_override(self):
        cfg = get_config()
        original = cfg.default_threads
        try:
            cfg.default_threads = 3
            assert cpu_count() == 3
        finally:
            cfg.default_threads = original


class TestEnvOverrides:
    def test_malformed_env_values_do_not_break_import(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", "import repro; print('imported-ok')"],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "REPRO_THREADS": "four",
                "REPRO_BUFFER_BUDGET_MB": "1gb",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert "imported-ok" in proc.stdout

    def test_valid_env_values_apply(self):
        import subprocess
        import sys

        cases = [
            (
                {"REPRO_THREADS": "2", "REPRO_BUFFER_BUDGET_MB": "0.5"},
                "import repro; c = repro.get_config(); "
                "print(c.default_threads, c.default_buffer_budget_bytes)",
                ["2", "524288"],
            ),
            # The path CI's chaos shard depends on: the three variables
            # arm the process-wide injector at import, every site live.
            (
                {
                    "REPRO_FAULT_RATE": "0.01",
                    "REPRO_FAULT_SEED": "20240",
                    "REPRO_FAULT_KINDS": "latency",
                },
                "import repro; from repro.reliability import active_injector; "
                "i = active_injector(); "
                "print(i.rate, i.seed, ','.join(i.kinds), i.sites)",
                ["0.01", "20240", "latency", "None"],
            ),
        ]
        for env, code, expected in cases:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", **env},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == expected, env

    @pytest.mark.parametrize("precision", ["int8", "pq"])
    def test_precision_env_changes_no_plan(self, precision):
        """``REPRO_PRECISION`` is not read: only a strategy hint puts a
        scan on codes, so a planner join still scans fp32 and a selection
        still reads the unit rows — even over a source a join has encoded."""
        import subprocess
        import sys

        code = """
import numpy as np
from repro.algebra import (
    EJoinNode, ESelectNode, ExecutionContext, ExecutionReport, ScanNode, execute,
)
from repro.core import ThresholdCondition
from repro.embedding import HashingEmbedder, ModelRegistry
from repro.relational import Catalog, DataType, Field, Schema, Table

schema = Schema.of(Field("id", DataType.INT64), Field("emb", DataType.TENSOR, dim=16))
rng = np.random.default_rng(0)
catalog = Catalog()
for name, n in (("l", 800), ("r", 1000)):
    emb = rng.standard_normal((n, 16)).astype(np.float32)
    catalog.register(name, Table.from_arrays(schema, {"id": np.arange(n), "emb": emb}))
models = ModelRegistry()
models.register("h", HashingEmbedder(dim=16, seed=3))
ctx = ExecutionContext(catalog, models=models)
join = EJoinNode(
    ScanNode("l"), ScanNode("r"), "emb", "emb", "h", ThresholdCondition(0.5),
    prefetch=True,
)
select = ESelectNode(
    ScanNode("r"), "emb", np.ones(16, dtype=np.float32), "h", ThresholdCondition(0.3)
)
report = ExecutionReport()
for plan in (join, select):
    execute(plan, ctx, report=report)
print(*report.strategies)
"""
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_PRECISION": precision},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["tensor", "eselect/scan"]


class TestConfigure:
    @pytest.mark.parametrize(
        "name",
        ["rng", "default_precision", "work_stealing", "watchdog_stall_s", "retry_max_attempts"],
    )
    def test_rejects_unknown_fields(self, name):
        """A method name or a removed setting is no field: ``configure``
        raises rather than store a value nothing reads."""
        with pytest.raises(AttributeError, match=name):
            configure(**{name: 42})
        # rng must still be callable afterwards
        assert rng("still-works").standard_normal(1).shape == (1,)
