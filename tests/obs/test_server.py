"""The live introspection endpoint: routes, formats, scrape-under-load."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from _service_utils import MODEL

from repro import QueryService
from repro.obs.server import METRICS_CONTENT_TYPE

pytestmark = pytest.mark.obs


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


@pytest.fixture
def serving(obs_engine):
    with QueryService(obs_engine, obs_sample_rate=1.0, http_port=0) as service:
        yield service, service.serve_http().url


class TestRoutes:
    def test_metrics_route_is_valid_exposition(self, serving, query_vectors):
        service, url = serving
        service.submit(
            service.engine.query("corpus").esimilar(
                "emb", query_vectors[0], model=MODEL, top_k=5
            ),
            tag="s/q1",
        )
        status, headers, body = _get(url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        # Every exported family carries both HELP and TYPE headers.
        helps = {
            line.split()[2]
            for line in body.splitlines()
            if line.startswith("# HELP")
        }
        types = {
            line.split()[2]
            for line in body.splitlines()
            if line.startswith("# TYPE")
        }
        assert helps == types and helps
        assert "repro_queries_total" in types
        assert 'outcome="completed"} 1' in body

    def test_health_route(self, serving):
        _, url = serving
        status, headers, body = _get(url + "/health")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        health = json.loads(body)
        assert health["status"] in ("ok", "degraded")

    def test_traces_and_slow_routes(self, serving, query_vectors):
        service, url = serving
        for i, qvec in enumerate(query_vectors[:3], 1):
            service.submit(
                service.engine.query("corpus").esimilar(
                    "emb", qvec, model=MODEL, top_k=5
                ),
                tag=f"s/q{i}",
            )
        _, _, traces_body = _get(url + "/traces")
        lines = [line for line in traces_body.splitlines() if line]
        assert len(lines) == 3
        for line in lines:
            trace = json.loads(line)
            assert trace["spans"][0]["name"] == "query"
            # Satellite: every span carries its absolute wall-clock start.
            for span_dict in trace["spans"]:
                assert span_dict["start_at"] >= trace["started_at"]
        _, _, slow_body = _get(url + "/slow")
        slow = json.loads(slow_body)
        assert len(slow) == 3
        assert slow[0]["critical_path"]

    def test_unknown_route_is_404(self, serving):
        _, url = serving
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(url + "/nope")
        assert excinfo.value.code == 404

    def test_scrape_while_queries_in_flight(self, serving, query_vectors):
        """The acceptance criterion: a valid scrape during live traffic."""
        service, url = serving
        stop = threading.Event()
        errors = []

        def traffic():
            try:
                i = 0
                while not stop.is_set():
                    i += 1
                    service.submit(
                        service.engine.query("corpus").esimilar(
                            "emb",
                            query_vectors[i % len(query_vectors)],
                            model=MODEL,
                            top_k=5,
                        ),
                        tag=f"bg/q{i}",
                    )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=traffic)
        thread.start()
        try:
            for _ in range(5):
                status, _, body = _get(url + "/metrics")
                assert status == 200
                assert "# HELP repro_queries_total" in body
                assert "# TYPE repro_queries_total counter" in body
                status, _, _ = _get(url + "/slow")
                assert status == 200
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestLifecycle:
    def test_serve_http_is_idempotent(self, obs_engine):
        with QueryService(obs_engine) as service:
            first = service.serve_http()
            assert service.serve_http() is first
            assert first.port > 0
            assert first.url.startswith("http://127.0.0.1:")

    def test_shutdown_closes_endpoint(self, obs_engine):
        service = QueryService(obs_engine, http_port=0)
        url = service.serve_http().url
        service.shutdown()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/health", timeout=1)

    def test_server_close_is_idempotent(self, obs_engine):
        with QueryService(obs_engine) as service:
            server = service.serve_http()
            server.close()
            server.close()
