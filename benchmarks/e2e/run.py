"""The repo's benchmark: one command, four workloads, one JSON line.

    python3 benchmarks/e2e/run.py --workload W --seed S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (``BENCHMARK.json`` declares both lists; this program emits exactly
the declared names with the declared units).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (environment, raw values,
sample counts, ``"claim": null``) goes to ``benchmarks/e2e/_out/``.
The exit code is non-zero when an operation failed or recall fell under
its floor.  The process the command starts is a supervisor (``supervise.py``):
the workload runs in a child of it under the hard timeout, and the supervisor
returns only when every process that child started has ended.  Without
``--workload`` every workload runs untraced then traced, each through that
same command.  The run length is not a
knob: the operation counts are frozen in ``workloads.py`` for the
``run_seconds`` of ``BENCHMARK.json``, and ``--seconds`` (the driver passes
it) is accepted only with that value.  The benchmark claims no gain: it only
measures.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOAD_NAMES = ("ejoin_strings", "ejoin_vectors", "serve_scan", "serve_hot")

#: A workload that runs longer than this dumps its threads and exits (the
#: driver allows 180 s); the supervisor kills its process group a little later.
HARD_TIMEOUT_S = 150
SUPERVISOR_TIMEOUT_S = HARD_TIMEOUT_S + 10


def command_line(workload: str, seed: int, trace: int, *, smoke: bool = False,
                 trace_out: Path | None = None) -> list[str]:
    """The command that runs one workload in a process of its own."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    return command


def supervised(args: argparse.Namespace) -> int:
    """Run the workload in a child under ``PYTHONHASHSEED=0`` and return its
    exit code once no process it started is left (see ``supervise.py``).

    String hashing is randomised per process; fixing it removes one source
    of run-to-run difference in dict layout that the 0.15 ms serving path
    shows (cache-hit p50 ranged 17% with random seeds, 9% with a fixed one).
    """
    import supervise

    command = command_line(args.workload, args.seed, args.trace,
                           smoke=args.smoke, trace_out=args.trace_out)
    sys.stdout.flush()
    return supervise.supervise(command + ["--supervised"], SUPERVISOR_TIMEOUT_S,
                               env={**os.environ, "PYTHONHASHSEED": "0"})


def pin_environment() -> None:
    """Fix the knobs that change what is measured, before NumPy loads.

    BLAS runs one thread (the engine's two workers are the parallelism under
    test), the program gets ``REPRO_THREADS=2`` and no other ``REPRO_*``
    variable reaches it.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["REPRO_THREADS"] = "2"
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Shard workers are spawned, not forked: they inherit the path this way.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: exercises every path, measures nothing")
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run_seconds = contract()["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds and not args.smoke:
        parser.error(
            f"--seconds {args.seconds:g}: the operation counts are frozen for "
            f"run_seconds = {run_seconds} (BENCHMARK.json); there is no other length"
        )
    return args


def _emit(names_units: list[dict], values: dict) -> dict:
    """Exactly the declared metrics, each with its declared unit."""
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark bug: undeclared values for {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in names_units
    }


def run_workload(args: argparse.Namespace) -> int:
    pin_environment()
    faulthandler.dump_traceback_later(HARD_TIMEOUT_S, exit=True)
    import harness  # noqa: E402 - after the environment is pinned

    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"the program under test is not in {ROOT / 'src'}: {exc}")
    import workloads

    declared = contract()
    probes = harness.Probes()
    probes.prewarm(0.1 if args.smoke else harness.PREWARM_S)

    started = time.perf_counter()
    w = workloads.make(args.workload, args.seed, smoke=args.smoke)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "run_seconds": declared["run_seconds"],
        "trace": args.trace,
        "smoke": args.smoke,
        "input_sha256": w.input_sha256,
        "sizes": w.sizes,
        "n_ops": w.n_ops,
        "program_version": repro.__version__,
        "environment": harness.environment(ROOT),
        "input_generation_s": time.perf_counter() - started,
    }
    tag = f"{w.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    try:
        if args.trace:
            import layers

            setup = harness.run_phase(probes, [w.setup])
            trace_out = args.trace_out or harness.OUT_DIR / f"trace-{tag}.jsonl"
            w.plan_checks(layers.client_ops(w))
            values, details = layers.trace(w, probes, trace_out)
            values["client.setup_s_raw"] = setup.slices[0].wall_s
            record["trace_details"] = details
            record["ladder"] = layers.ladder_sums(values, w.name)
            client = details["client"]
            declared_metrics = declared["per_layer"]
        else:
            repeats = w.sizes["setup_repeats"]
            setup = harness.run_phase(
                probes, [w.setup] + [w.setup_again] * (repeats - 1)
            )
            w.plan_checks(w.n_ops)
            phase = harness.run_slices(probes, w.n_ops, harness.SLICES, w.run_ops)
            client = harness.client_stats(phase)
            rss = harness.peak_rss_mb()  # before the oracle allocates
            record["client"] = client
            setup_raw = statistics.median(sl.wall_s for sl in setup.slices)
            values = {
                "setup_s": setup_raw / setup.factor,
                "op_ms_p50": client["op_ms_p50"],
                "ops_per_s": client["ops_per_s"],
                "peak_rss_mb": rss,
            }
            # The same statistics without the box factor (repeat.py prints
            # them beside the normalised ones and flags a disagreement).
            record["raw"] = {
                "setup_s": setup_raw,
                "op_ms_p50": client["op_ms_p50_raw"],
                "ops_per_s": client["ops_per_s_raw"],
            }
            declared_metrics = declared["end_to_end"]
        record["setup"] = {
            "wall_s": [sl.wall_s for sl in setup.slices],
            "factor": setup.factor,
            "readings": setup.readings,
        }
        check = w.verify()
        record["check"] = check
        values["recall"] = check["recall"]
    finally:
        w.teardown()

    failed = (client["attempted"] - client["ok"]) + check["failed"]
    correct = failed == 0 and not check["below_floor"]
    metrics = _emit(declared_metrics, values)
    record.update(correct=correct, attempted=client["attempted"], failed=failed,
                  metrics=metrics, wall_s=time.perf_counter() - started)
    path = harness.write_record(record, f"record-{tag}-trace{args.trace}.json")
    harness.log(
        f"[{w.name}] trace={args.trace} seed={args.seed} ops={client['attempted']} "
        f"failed={failed} recall={check['recall']:.4f} "
        f"box={client['box']['factor']:.3f} samples={client['shape_samples']} "
        f"record={path.relative_to(ROOT)}"
    )
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps({"correct": correct, "attempted": client["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def invoke(workload: str, seed: int, trace: int, *, smoke: bool = False):
    """One workload run through the benchmark's command, which supervises
    itself: it enforces the hard timeout and leaves no process behind.

    Returns ``(exit_code, result, stderr)``; ``result`` is the parsed last
    line of standard output, ``{}`` when there is none (124: timed out).
    """
    done = subprocess.run(command_line(workload, seed, trace, smoke=smoke),
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1]) if lines else {}, done.stderr
    except json.JSONDecodeError:
        return done.returncode or 1, {}, done.stderr


def run_suite(args: argparse.Namespace) -> int:
    """Every workload untraced then traced, each in its own process, so a
    hung shard pool or front is a failed workload and not a stalled run."""
    summary = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            start = time.perf_counter()
            code, result, stderr = invoke(name, args.seed, trace, smoke=args.smoke)
            sys.stderr.write(stderr)
            summary.append({"workload": name, "trace": trace, "exit_code": code,
                            "wall_s": time.perf_counter() - start, **result})
    print(json.dumps({"suite": summary, "smoke": args.smoke, "claim": None}))
    return 1 if any(run["exit_code"] for run in summary) else 0


if __name__ == "__main__":
    cli = parse_args()
    if cli.workload:
        sys.exit(run_workload(cli) if cli.supervised else supervised(cli))
    sys.exit(run_suite(cli))
