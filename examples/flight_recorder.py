"""Flight recorder end to end: capture, scrape, replay, verify.

Demonstrates (and asserts) the capture→replay→diff loop the flight
recorder exists for:

1. serve a concurrent workload with JSONL capture enabled and the live
   introspection endpoint up;
2. scrape ``/metrics`` (Prometheus exposition with HELP+TYPE), ``/health``
   and ``/slow`` (critical-path summaries of the slowest queries) over
   plain HTTP while traffic runs;
3. replay the captured workload against a *fresh* service on a fresh
   engine and verify every result digest bit-identical to the capture —
   the exactness proof a perf-affecting change should publish.

Flags make it CI-friendly: ``--port`` pins the endpoint, ``--hold-s``
keeps the server up after the workload so an external ``curl`` can probe
it, ``--capture`` writes the workload somewhere inspectable.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

import repro
from repro.obs.replay import WorkloadReplayer
from repro.relational.column import Column
from repro.workloads import unit_vectors

N_ROWS, DIM = 20_000, 64


def build_engine() -> repro.Engine:
    vectors = unit_vectors(N_ROWS, DIM, stream="example/fr-corpus")
    table = repro.Table.from_columns(
        [
            Column(repro.Field("doc_id", repro.DataType.INT64), np.arange(N_ROWS)),
            Column(repro.Field("emb", repro.DataType.TENSOR, dim=DIM), vectors),
        ]
    )
    catalog = repro.Catalog()
    catalog.register("docs", table)
    engine = repro.Engine(catalog)
    engine.models.register("encoder", repro.HashingEmbedder(dim=DIM))
    return engine


def drive_workload(service, *, clients: int, queries: int) -> None:
    qvecs = unit_vectors(queries, DIM, stream="example/fr-queries")
    per_client = queries // clients
    errors: list = []

    def client(c: int) -> None:
        try:
            mine = qvecs[c * per_client : (c + 1) * per_client]
            for i, qvec in enumerate(mine, 1):
                service.submit(
                    service.engine.query("docs").esimilar(
                        "emb", qvec, model="encoder", top_k=10
                    ),
                    tag=f"client-{c}/q{i}",
                )
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def scrape(url: str, route: str) -> str:
    with urllib.request.urlopen(url + route, timeout=10) as response:
        return response.read().decode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0, help="endpoint port (0: free)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument(
        "--capture", default=None, help="capture file (default: a temp file)"
    )
    parser.add_argument(
        "--hold-s",
        type=float,
        default=0.0,
        help="keep the endpoint alive this long after the workload (for curl)",
    )
    args = parser.parse_args()

    capture = Path(
        args.capture
        or Path(tempfile.mkdtemp(prefix="repro-fr-")) / "workload.jsonl"
    )

    # --- 1. capture a concurrent workload with the endpoint live -------
    engine = build_engine()
    service = engine.serve(
        capture_path=str(capture),
        obs_sample_rate=1.0,
        http_port=args.port,
    )
    url = service.serve_http().url
    print(f"endpoint up at {url}")
    drive_workload(service, clients=args.clients, queries=args.queries)

    # --- 2. scrape the introspection routes over real HTTP -------------
    metrics = scrape(url, "/metrics")
    assert "# HELP repro_queries_total" in metrics
    assert "# TYPE repro_queries_total counter" in metrics
    health = json.loads(scrape(url, "/health"))
    slow = json.loads(scrape(url, "/slow"))
    assert slow and slow[0]["critical_path"][0]["name"] == "query"
    print(
        f"scraped: {len(metrics.splitlines())} metric lines, "
        f"health={health['status']}, {len(slow)} slow-log entries"
    )
    worst = slow[0]
    path_names = " -> ".join(p["name"] for p in worst["critical_path"])
    print(
        f"slowest query {worst['query_id']} ({worst['wall_s'] * 1e3:.2f} ms): "
        f"{path_names}"
    )

    if args.hold_s > 0:
        print(f"holding endpoint for {args.hold_s:.0f}s (scrape it now)...")
        threading.Event().wait(args.hold_s)

    service.shutdown()
    print(f"captured {args.queries} queries to {capture}")

    # --- 3. replay against a fresh engine; digests must match ----------
    fresh = repro.QueryService(build_engine(), result_cache_size=0)
    report = WorkloadReplayer(capture, mode="closed", clients=args.clients).run(
        fresh
    )
    fresh.shutdown()
    digests = report["digests"]
    print(
        f"replay: {digests['matched']}/{digests['verified']} digests "
        f"bit-identical "
        f"(capture p50 {report['capture']['latency']['p50'] * 1e3:.2f} ms, "
        f"replay p50 {report['replay']['latency']['p50'] * 1e3:.2f} ms)"
    )
    assert report["ok"], report["mismatches"]
    assert digests["matched"] == args.queries
    assert digests["mismatched"] == 0
    print("flight recorder example OK")


if __name__ == "__main__":
    main()
