"""Unit tests for global configuration and seeding."""

import numpy as np

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

    def test_precision_env_applies(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro; c = repro.get_config(); "
                "print(c.default_precision, c.default_rerank_multiple)",
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": "src",
                "REPRO_PRECISION": "int8",
                "REPRO_RERANK_MULTIPLE": "8",
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["int8", "8"]

    def test_unknown_precision_warns_and_falls_back(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro; print(repro.get_config().default_precision)",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "REPRO_PRECISION": "int3"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "fp32"


class TestConfigure:
    def test_rejects_method_names(self):
        from repro.config import configure

        import pytest

        with pytest.raises(AttributeError, match="rng"):
            configure(rng=42)
        # rng must still be callable afterwards
        from repro.config import rng

        assert rng("still-works").standard_normal(1).shape == (1,)
