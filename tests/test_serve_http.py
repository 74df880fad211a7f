"""End-to-end tests over real sockets: HTTP server + blocking client.

The headline test fires 32 concurrent queries (mixed patterns, many
duplicated) and cross-checks every response against direct
``Runtime.count`` calls — the service must be a transparent cache/batch
layer, never an approximation.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.graph import generators as gen
from repro.patterns.dsl import parse_pattern
from repro.runtime import Runtime
from repro.serve import CountingService, GraphRegistry, ServiceConfig
from repro.serve.client import CountClient, ServeClientError
from repro.serve.http import start_in_thread


@pytest.fixture(scope="module")
def graphs():
    return {
        "er": gen.erdos_renyi(40, 0.3, seed=7),
        "ba": gen.barabasi_albert(60, 4, seed=8),
    }


@pytest.fixture(scope="module")
def server(graphs):
    registry = GraphRegistry()
    for name, graph in graphs.items():
        registry.register(name, graph)
    service = CountingService(
        registry, config=ServiceConfig(max_queue=64, max_batch=8, executor_workers=2)
    )
    handle = start_in_thread(service)
    yield handle, service
    handle.stop()


@pytest.fixture
def client(server):
    handle, _ = server
    return CountClient(port=handle.port, timeout=30.0)


class TestRoutes:
    def test_healthz(self, client, graphs):
        health = client.healthz()
        assert health["ok"] is True
        assert {g["name"] for g in health["graphs"]} == set(graphs)
        er = next(g for g in health["graphs"] if g["name"] == "er")
        assert er["vertices"] == 40 and len(er["fingerprint"]) == 64

    def test_count_round_trip(self, client, graphs):
        response = client.count("er", "triangle")
        expected = Runtime().count(graphs["er"], parse_pattern("triangle")).count
        assert response.count == expected
        assert response.graph == "er"
        assert response.fingerprint == graphs["er"].fingerprint()

    def test_metrics_prometheus_text(self, client):
        client.count("er", "3-star")
        text = client.metrics()
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_responses_total" in text

    def test_error_codes_map_to_http_status(self, client):
        with pytest.raises(ServeClientError) as exc:
            client.count("missing", "triangle")
        assert exc.value.code == "unknown_graph" and exc.value.status == 404
        with pytest.raises(ServeClientError) as exc:
            client.count("er", "not a pattern @@@")
        assert exc.value.code == "bad_pattern" and exc.value.status == 400

    @pytest.mark.parametrize("pattern", ["4-clique", "5-clique"])
    def test_specialized_without_closed_form_is_bad_request(self, client, pattern):
        with pytest.raises(ServeClientError) as exc:
            client.count("er", pattern, engine="specialized")
        assert exc.value.code == "bad_request" and exc.value.status == 400
        assert "no specialized engine" in exc.value.message

    def test_unknown_route_and_wrong_method(self, client):
        status, body = client._json("GET", "/v2/nope")
        assert status == 404
        status, body = client._json("GET", "/v1/count")
        assert status == 405 and body["ok"] is False

    def test_garbage_body_is_bad_request(self, client):
        status, raw = client._request(
            "POST", "/v1/count", b"\xff\xfe this is not json"
        )
        assert status == 400
        assert json.loads(raw)["error"]["code"] == "bad_request"


class TestConcurrent:
    def test_32_concurrent_mixed_queries_match_direct_runtime(self, client, graphs):
        # mixed patterns, deliberately duplicated so coalescing/caching has
        # identical in-flight and repeated work to exploit
        workload = [
            ("er", "triangle"), ("er", "3-star"), ("er", "paw"), ("er", "4-cycle"),
            ("ba", "triangle"), ("ba", "3-star"), ("ba", "diamond"), ("ba", "4-star"),
        ] * 4  # 32 queries
        direct = Runtime()
        expected = {
            (g, p): direct.count(graphs[g], parse_pattern(p)).count
            for (g, p) in set(workload)
        }
        with ThreadPoolExecutor(max_workers=32) as pool:
            responses = list(
                pool.map(lambda gp: (gp, client.count(gp[0], gp[1])), workload)
            )
        assert len(responses) == 32
        for (g, p), response in responses:
            assert response.count == expected[(g, p)], (g, p)
        # duplicated queries were served without 32 separate executions
        text = client.metrics()
        metrics = {
            line.split()[0]: float(line.split()[1])
            for line in text.splitlines()
            if line and not line.startswith("#") and len(line.split()) == 2
        }
        saved = (
            metrics.get("repro_serve_coalesced_total", 0)
            + metrics.get("repro_serve_result_cache_hits_total", 0)
        )
        assert saved > 0
