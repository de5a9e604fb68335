"""Smoke test of the benchmark itself (toy sizes, well under 30 s).

Not part of tier-1 (``testpaths = tests``); run it with

    python -m pytest benchmarks/e2e/test_smoke.py -q

It checks the contract between ``BENCHMARK.json`` and what ``run.py``
prints, not the numbers: smoke sizes measure nothing.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_smoke(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    """One ``--smoke`` run: the printed result line and the full record."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "_out" / f"record-{workload}-seed{seed}-smoke-trace{trace}.json").read_text()
    )
    return result, record


@pytest.fixture(scope="module")
def runs() -> dict:
    return {(w, t): run_smoke(w, t) for w in WORKLOADS for t in (0, 1)}


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_once(runs, workload, trace):
    result, record = runs[workload, trace]
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert record["smoke"] is True
    assert list(record)[-1] == "claim" and record["claim"] is None


def test_traced_run_writes_spans_and_ladders_add_up(runs):
    for workload in WORKLOADS:
        _, record = runs[workload, 1]
        spans = Path(record["trace_details"]["trace_out"])
        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        assert any("name" in r and {"op", "parent", "start", "end"} <= set(r)
                   for r in rows)
        ladder = record["ladder"]
        assert ladder["sum"] == pytest.approx(ladder["top_rung_ms"], abs=1e-6)
        assert "trace.overhead_share" in record["metrics"]


def test_seed_changes_inputs_and_nothing_else(runs):
    _, first = runs["ejoin_vectors", 0]
    _, second = run_smoke("ejoin_vectors", 0, seed=2)
    assert first["input_sha256"] != second["input_sha256"]
    for key in ("sizes", "n_ops", "workload", "run_seconds", "smoke"):
        assert first[key] == second[key]
    assert list(first["metrics"]) == list(second["metrics"])


def _helper_processes() -> set[int]:
    """Pids of ``multiprocessing`` helpers (resource tracker, spawned workers)."""
    found = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path("/proc", entry, "cmdline").read_bytes()
            except OSError:
                continue
            if b"multiprocessing" in cmdline:
                found.add(int(entry))
    return found


def test_sharded_run_leaves_no_process():
    """The traced serving run starts shard workers and a resource tracker;
    none of them is alive when the command returns."""
    before = _helper_processes()
    run_smoke("serve_scan", 1, seed=3)
    assert _helper_processes() <= before


def test_supervisor_ends_what_outlives_the_workload(tmp_path):
    """A process the workload leaves behind is killed and waited for before
    the supervisor returns, and the workload's exit code comes through."""
    pid_file = tmp_path / "pid"
    workload = (
        "import subprocess, sys; "
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
        f"open({str(pid_file)!r}, 'w').write(str(p.pid)); sys.exit(3)"
    )
    supervisor = (
        "import sys, supervise; supervise.GRACE_S = 0.2; "
        f"sys.exit(supervise.supervise([sys.executable, '-c', {workload!r}], 30))"
    )
    done = subprocess.run([sys.executable, "-c", supervisor], cwd=HERE, timeout=60)
    assert done.returncode == 3
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_run_length_is_not_a_knob():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve_hot",
         "--seconds", str(CONTRACT["run_seconds"] + 1)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "run_seconds" in done.stderr


@pytest.mark.parametrize("saved, reason", [
    ({"runs": [], "smoke": True}, "smoke"),
    ({"runs": [{"workload": "serve_hot", "seed": 1, "sizes": {"n_ops": 1}}]}, "sizes"),
])
def test_repeat_refuses_sets_that_measured_something_else(tmp_path, saved, reason):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(saved))
    done = subprocess.run(
        [sys.executable, str(HERE / "repeat.py"), "-n", "1", "--against", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert reason in done.stderr
