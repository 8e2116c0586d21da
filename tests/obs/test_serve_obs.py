"""Serve-layer observability: /metrics, /trace, stats decode, span chain.

Holds the tentpole acceptance assertions: a single served query produces one
connected span tree from the client span through the server request span to
the session's routing and hierarchy-selection spans, and ``/metrics`` exposes
at least 12 distinct series spanning the protocol, store and serve layers.
"""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.exceptions import ServeError
from repro.obs import RingBufferSink, Span, Tracer, connected_trace, span_tree
from repro.obs.registry import parse_prometheus
from repro.serve import ServeClient, start_server
from repro.store.checkpoint import open_readonly_session, save_session
from repro.workloads.registry import default_registry


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    scenario = default_registry().scenario(
        "table3-default", peer_count=32, duration_seconds=300.0
    )
    session = scenario.builder().build()
    path = tmp_path_factory.mktemp("obs-serve") / "obs.sqlite"
    save_session(session, str(path))
    return str(path)


@pytest.fixture
def served(store_path):
    session = open_readonly_session(store_path)
    server = start_server(session, close_session_on_stop=True)
    sink = RingBufferSink()
    with ServeClient(server.url, tracer=Tracer(sink=sink)) as client:
        yield server, client, sink
    if not session.closed:
        server.stop()


def test_single_query_produces_connected_span_tree(served):
    server, client, sink = served
    client.query(required_results=3)

    client_spans = sink.spans()
    assert [span.name for span in client_spans] == ["client /query"]
    trace_id = client_spans[0].trace_id

    server_spans = [
        Span.from_payload(payload) for payload in client.trace()["spans"]
    ]
    spans = client_spans + [s for s in server_spans if s.trace_id == trace_id]
    names = {span.name for span in spans}
    # Client → HTTP worker → session query → per-domain routing → selection.
    assert {"client /query", "serve /query", "query", "route-domain",
            "hierarchy-selection"} <= names
    assert connected_trace(spans, trace_id)

    # And the parent chain is the advertised one, not merely connected.
    by_name = {span.name: span for span in spans}
    assert by_name["serve /query"].parent_id == by_name["client /query"].span_id
    assert by_name["query"].parent_id == by_name["serve /query"].span_id
    tree = span_tree(spans)
    assert any(
        s.name == "route-domain" for s in tree.get(by_name["query"].span_id, [])
    )
    assert all(
        any(s.name == "hierarchy-selection" for s in tree.get(rd.span_id, []))
        for rd in spans
        if rd.name == "route-domain"
    )


def test_metrics_exposes_all_layers(served):
    server, client, _sink = served
    client.query(required_results=3)
    client.stats()

    parsed = parse_prometheus(client.metrics())
    names = set(parsed)
    assert len(names) >= 12, sorted(names)
    protocol = {"repro_queries_total", "repro_query_messages_total",
                "repro_routing_domains_total"}
    serve_layer = {"repro_serve_requests_total", "repro_serve_uptime_seconds",
                   "repro_serve_request_seconds_count"}
    assert protocol <= names
    assert serve_layer <= names


def test_trace_endpoint_tails_and_limits(served):
    server, client, _sink = served
    client.query(required_results=3)
    full = client.trace()
    assert full["emitted"] >= len(full["spans"]) > 0
    limited = client.trace(limit=2)
    assert len(limited["spans"]) == 2
    # Serving the first /trace call appended one more span to the ring, so
    # the limited tail is the full tail shifted by that request's own span.
    assert limited["spans"][0] == full["spans"][-1]
    assert limited["spans"][1]["name"] == "serve /trace"


@pytest.mark.parametrize("raw", ["abc", "1.5", "-3"])
def test_trace_rejects_a_malformed_limit_and_keeps_the_connection(served, raw):
    """A typed 400, not a 500 or an arbitrary slice; the socket stays in sync."""
    server, _client, _sink = served
    connection = http.client.HTTPConnection(urlsplit(server.url).netloc, timeout=5)
    try:
        connection.request("GET", f"/trace?limit={raw}")
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert payload["type"] == "ServeError" and repr(raw) in payload["error"]
        # Same socket, next request: answered whole.
        connection.request("GET", "/health")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        connection.close()


def test_trace_limit_zero_lists_nothing(served):
    server, client, _sink = served
    client.query(required_results=3)
    assert client.trace(limit=0)["spans"] == []
    assert client.trace(limit=0)["emitted"] > 0


def test_stats_decodes_lazy_and_uptime(served):
    server, client, _sink = served
    stats = client.stats()
    assert stats["uptime_seconds"] > 0
    lazy = stats["lazy"]
    assert set(lazy) == {"fetches", "hits", "evictions", "cached", "cache_size"}
    assert all(isinstance(value, int) for value in lazy.values())


def test_served_answers_match_untraced_client(served):
    """Header propagation must not change what the server computes."""
    server, client, _sink = served
    with ServeClient(server.url) as plain:
        assert client.query(required_results=3) == plain.query(required_results=3)


def test_no_obs_server_rejects_observability_endpoints(store_path):
    session = open_readonly_session(store_path)
    server = start_server(session, close_session_on_stop=True, observability=None)
    try:
        with ServeClient(server.url) as client:
            client.query(required_results=3)  # still answers queries
            with pytest.raises(ServeError, match="disabled"):
                client.metrics()
            with pytest.raises(ServeError, match="trace ring"):
                client.trace()
    finally:
        if not session.closed:
            server.stop()
