"""Flight recorder: capture format, rotation, overhead, replay digests."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from _service_utils import DIM, MODEL, make_engine

from repro import QueryService
from repro.core.conditions import ThresholdCondition, TopKCondition
from repro.errors import DeadlineExceededError, ServiceOverloadError
from repro.obs.capture import (
    UnsupportedPlanError,
    WorkloadRecorder,
    _classify_outcome,
    load_workload,
    plan_from_dict,
    plan_to_dict,
    result_digest,
)
from repro.obs.replay import ReplayError, WorkloadReplayer, latency_percentiles
from repro.workloads import unit_vectors

pytestmark = pytest.mark.obs


def _plan(qvec, **kwargs):
    engine = make_engine()
    return engine.query("corpus").esimilar(
        "emb", qvec, model=MODEL, **kwargs
    ).plan


class TestPlanWireFormat:
    def test_topk_plan_roundtrips(self, query_vectors):
        plan = _plan(query_vectors[0], top_k=5)
        encoded = plan_to_dict(plan)
        # Dict-level equality sidesteps ndarray ambiguity in dataclass __eq__.
        assert plan_to_dict(plan_from_dict(encoded)) == encoded
        assert json.loads(json.dumps(encoded)) == encoded

    def test_threshold_plan_roundtrips(self, query_vectors):
        plan = _plan(query_vectors[1], threshold=0.2)
        encoded = plan_to_dict(plan)
        assert encoded["condition"] == {"kind": "threshold", "threshold": 0.2}
        assert plan_to_dict(plan_from_dict(encoded)) == encoded

    def test_query_vector_is_bit_exact_through_json(self, query_vectors):
        plan = _plan(query_vectors[2], top_k=3)
        wire = json.loads(json.dumps(plan_to_dict(plan)))
        rebuilt = plan_from_dict(wire)
        assert rebuilt.query.dtype == plan.query.dtype
        assert np.array_equal(rebuilt.query, plan.query)

    def test_string_query_and_min_similarity(self):
        engine = make_engine()
        plan = engine.query("corpus").esimilar(
            "emb", "hello world", model=MODEL, top_k=4, min_similarity=0.1
        ).plan
        encoded = plan_to_dict(plan)
        rebuilt = plan_from_dict(encoded)
        assert rebuilt.query == "hello world"
        condition = rebuilt.condition
        assert isinstance(condition, TopKCondition)
        assert condition.min_similarity == 0.1

    def test_unsupported_plan_raises(self):
        from repro.algebra.logical import EJoinNode, ScanNode

        node = EJoinNode(
            ScanNode("corpus"),
            ScanNode("other"),
            "emb",
            "emb",
            MODEL,
            ThresholdCondition(0.5),
        )
        with pytest.raises(UnsupportedPlanError):
            plan_to_dict(node)
        with pytest.raises(UnsupportedPlanError):
            plan_from_dict({"op": "nope"})


class TestResultDigest:
    def test_digest_is_stable_and_discriminating(self, obs_engine):
        qvec = unit_vectors(1, DIM, stream="cap/digest")[0]

        def run(k):
            return (
                obs_engine.query("corpus")
                .esimilar("emb", qvec, model=MODEL, top_k=k)
                .execute()
            )

        a, b = run(5), run(5)
        assert result_digest(a) == result_digest(b)
        assert result_digest(a) != result_digest(run(6))

    def test_outcome_classification(self):
        assert _classify_outcome(None) == "completed"
        assert _classify_outcome(DeadlineExceededError("late")) == "shed"
        assert _classify_outcome(ServiceOverloadError("full")) == "rejected"
        assert _classify_outcome(ValueError("boom")) == "failed"


class TestRecorder:
    def test_records_land_as_jsonl(self, tmp_path, obs_engine, query_vectors):
        path = tmp_path / "wl.jsonl"
        with QueryService(obs_engine, capture_path=str(path)) as service:
            for i, qvec in enumerate(query_vectors[:4], 1):
                service.submit(
                    service.engine.query("corpus").esimilar(
                        "emb", qvec, model=MODEL, top_k=5
                    ),
                    tag=f"cap/q{i}",
                )
            stats = service.recorder.stats_snapshot()
        records = load_workload(path)
        assert len(records) == 4 == stats["records"]
        for record in records:
            assert record["outcome"] == "completed"
            assert record["plan"]["op"] == "eselect"
            assert record["digest"] is not None
            assert record["latency_s"] > 0
            assert not {"min_recall", "degraded", "precision"} & record.keys()
        arrivals = [r["arrival_s"] for r in records]
        assert arrivals == sorted(arrivals)

    def test_rotation_bounds_disk(self, tmp_path):
        path = tmp_path / "rot.jsonl"
        recorder = WorkloadRecorder(path, max_bytes=2000, keep=2)
        from repro.algebra.logical import ScanNode

        for i in range(40):
            recorder.record(
                plan=ScanNode("corpus"),
                tag="t",
                query_id=f"q{i}",
                arrival_s=float(i),
            )
        recorder.close()
        assert recorder.rotations > 0
        generations = sorted(p.name for p in tmp_path.iterdir())
        assert "rot.jsonl" in generations
        assert "rot.jsonl.1" in generations
        assert f"rot.jsonl.{3}" not in "".join(generations)
        for gen in generations:
            assert (tmp_path / gen).stat().st_size <= 2000 + 300

    def test_unsupported_plans_still_recorded(self, tmp_path):
        from repro.algebra.logical import FilterNode, ScanNode

        recorder = WorkloadRecorder(tmp_path / "u.jsonl")
        recorder.record(
            plan=FilterNode(ScanNode("corpus"), lambda t: t),
            tag="t",
            query_id="q1",
            arrival_s=0.0,
        )
        recorder.close()
        [record] = load_workload(tmp_path / "u.jsonl")
        assert record["plan"] is None
        assert recorder.unsupported_plans == 1

    def test_failed_queries_capture_outcome(self, tmp_path, obs_engine):
        path = tmp_path / "f.jsonl"
        with QueryService(obs_engine, capture_path=str(path)) as service:
            with pytest.raises(Exception):
                service.submit(
                    service.engine.query("corpus").esimilar(
                        "emb",
                        np.ones(DIM + 3, dtype=np.float32),
                        model=MODEL,
                        top_k=5,
                    )
                )
        [record] = load_workload(path)
        assert record["outcome"] == "failed"
        assert record["digest"] is None
        assert record["error"]


class TestCaptureOverhead:
    @pytest.mark.perf
    def test_capture_disabled_overhead_under_2pct_p50(
        self, tmp_path, query_vectors
    ):
        """The acceptance gate: a capture-less service must not be slower.

        There is no pre-PR binary to diff against, so the gate compares
        the disabled path against the *enabled* one (which does strictly
        more work per query): p50(disabled) <= p50(enabled) * 1.02 plus
        an absolute slack floor for timer noise at microsecond scale.
        """
        n = 150
        qvecs = unit_vectors(n, DIM, stream="cap/overhead")

        def drive(service):
            latencies = []
            for i, qvec in enumerate(qvecs[:20], 1):  # warmup
                service.submit(
                    service.engine.query("corpus").esimilar(
                        "emb", qvec, model=MODEL, top_k=5
                    ),
                    tag=f"ovh/q{i}",
                )
            import time

            for i, qvec in enumerate(qvecs, 21):
                query = service.engine.query("corpus").esimilar(
                    "emb", qvec, model=MODEL, top_k=5
                )
                t0 = time.perf_counter()
                service.submit(query, tag=f"ovh/q{i}")
                latencies.append(time.perf_counter() - t0)
            return latency_percentiles(latencies)["p50"]

        with QueryService(make_engine(), result_cache_size=0) as service:
            p50_disabled = drive(service)
        with QueryService(
            make_engine(),
            result_cache_size=0,
            capture_path=str(tmp_path / "ovh.jsonl"),
        ) as service:
            p50_enabled = drive(service)
        assert p50_disabled <= p50_enabled * 1.02 + 0.0005, (
            f"capture-disabled p50 {p50_disabled * 1e3:.3f} ms vs "
            f"enabled {p50_enabled * 1e3:.3f} ms"
        )


    def test_capture_less_miss_calls_nothing_in_capture(self, tmp_path, query_vectors):
        """The wall-clock gate above, counted: with no capture path a miss
        calls no function defined in ``obs/capture.py``; with one it does."""
        import cProfile
        import pstats

        def capture_calls(service) -> int:
            for i, qvec in enumerate(query_vectors[:2], 1):  # warm up
                service.submit(_query(service, qvec), tag=f"calls/q{i}")
            profile = cProfile.Profile()
            profile.enable()
            service.submit(_query(service, query_vectors[2]), tag="calls/q3")
            profile.disable()
            return sum(
                1
                for file, _, _ in pstats.Stats(profile).stats
                if file.replace("\\", "/").endswith("obs/capture.py")
            )

        with QueryService(make_engine(), result_cache_size=0) as service:
            assert capture_calls(service) == 0
        with QueryService(
            make_engine(),
            result_cache_size=0,
            capture_path=str(tmp_path / "calls.jsonl"),
        ) as service:
            assert capture_calls(service) > 0


def _query(service, qvec):
    return service.engine.query("corpus").esimilar("emb", qvec, model=MODEL, top_k=5)


class TestReplay:
    def _capture(self, tmp_path, *, clients=4, queries=24):
        """Drive a concurrent fig_service-style workload under capture."""
        path = tmp_path / "capture.jsonl"
        qvecs = unit_vectors(queries, DIM, stream="replay/queries")
        per_client = queries // clients
        with QueryService(make_engine(), capture_path=str(path)) as service:
            barrier = threading.Barrier(clients)
            errors = []

            def client(c):
                try:
                    barrier.wait()
                    mine = qvecs[c * per_client : (c + 1) * per_client]
                    for i, qvec in enumerate(mine, 1):
                        service.submit(
                            service.engine.query("corpus").esimilar(
                                "emb", qvec, model=MODEL, top_k=5
                            ),
                            tag=f"c{c}/q{i}",
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(c,))
                for c in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
        return path

    def test_closed_loop_replay_matches_digests(self, tmp_path):
        path = self._capture(tmp_path)
        with QueryService(make_engine(), result_cache_size=0) as fresh:
            report = WorkloadReplayer(path, mode="closed", clients=8).run(fresh)
        assert report["ok"], report["mismatches"]
        assert report["digests"]["matched"] == 24
        assert report["digests"]["mismatched"] == 0
        assert report["capture"]["latency"]["p50"] > 0
        assert report["replay"]["latency"]["p50"] > 0
        assert report["replay"]["qps"] > 0

    def test_paced_replay_respects_arrival_order(self, tmp_path):
        path = self._capture(tmp_path, clients=2, queries=8)
        with QueryService(make_engine(), result_cache_size=0) as fresh:
            report = WorkloadReplayer(
                path, mode="paced", speed=50.0, clients=2
            ).run(fresh)
        assert report["ok"], report["mismatches"]
        assert report["digests"]["matched"] == 8

    def test_replay_detects_changed_results(self, tmp_path, query_vectors):
        path = tmp_path / "wl.jsonl"
        with QueryService(make_engine(), capture_path=str(path)) as service:
            for i, qvec in enumerate(query_vectors[:3], 1):
                service.submit(
                    service.engine.query("corpus").esimilar(
                        "emb", qvec, model=MODEL, top_k=5
                    ),
                    tag=f"s/q{i}",
                )
        records = load_workload(path)
        records[1]["digest"] = "0" * 64  # simulate a changed result
        with QueryService(make_engine(), result_cache_size=0) as fresh:
            report = WorkloadReplayer(records, mode="closed").run(fresh)
        assert not report["ok"]
        assert report["digests"]["mismatched"] == 1
        [mismatch] = report["mismatches"]
        assert mismatch["kind"] == "digest"

    def test_unsupported_records_are_skipped_not_fatal(self, tmp_path):
        records = [
            {
                "v": 1,
                "query_id": "q1",
                "tag": "t",
                "arrival_s": 0.0,
                "deadline_s": None,
                "priority": 0,
                "plan": None,
                "outcome": "completed",
                "error": None,
                "latency_s": 0.001,
                "cache_hit": False,
                "digest": "ab",
            }
        ]
        with QueryService(make_engine()) as fresh:
            report = WorkloadReplayer(records, mode="closed").run(fresh)
        assert report["ok"]
        assert report["digests"]["skipped_unsupported"] == 1

    @pytest.mark.parametrize("apply_qos", [False, True])
    def test_older_record_keys_are_ignored(self, apply_qos, query_vectors):
        """A record from a capture that still wrote a recall floor and the
        degrade flags replays like any other and matches its digest."""
        engine = make_engine()
        builder = engine.query("corpus").esimilar(
            "emb", query_vectors[0], model=MODEL, top_k=5
        )
        record = {
            "v": 1,
            "query_id": "q1",
            "tag": "t",
            "arrival_s": 0.0,
            "deadline_s": 30.0,
            "priority": 2,
            "min_recall": 0.9,
            "plan": plan_to_dict(builder.plan),
            "outcome": "completed",
            "error": None,
            "latency_s": 0.001,
            "degraded": False,
            "cache_hit": False,
            "precision": "fp32",
            "digest": result_digest(builder.execute()),
        }
        with QueryService(make_engine(), result_cache_size=0) as fresh:
            report = WorkloadReplayer(
                [record], mode="closed", apply_qos=apply_qos
            ).run(fresh)
        assert report["ok"], report["mismatches"]
        assert report["digests"]["matched"] == 1

    def test_invalid_modes_rejected(self):
        with pytest.raises(ReplayError):
            WorkloadReplayer([], mode="warp")
        with pytest.raises(ReplayError):
            WorkloadReplayer([], speed=0.0)
