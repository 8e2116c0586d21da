"""Supervised multi-process serving: health, dispatch, cache, drain.

A module-scoped supervisor forks real worker processes over the planned
checkpoint; the tests assert the crash-safe serving contract *without*
faults (the chaos tests inject them): fleet answers equal a fresh local
restore, the response cache is invisible except in the counters, deadlines
and admission control fail typed, and shutdown drains gracefully.
"""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ServeError
from repro.serve.client import ServeClient
from repro.serve.supervisor import LIVE, STOPPED, Supervisor
from repro.store.checkpoint import open_readonly_session


@pytest.fixture(scope="module")
def supervisor(planned_store):
    sup = Supervisor(
        planned_store,
        workers=2,
        max_inflight=16,
        deadline_ms=30_000,
        cache_size=64,
        heartbeat_interval=0.15,
        restart_backoff_base=0.05,
        restart_backoff_cap=0.5,
    ).start()
    yield sup
    sup.stop()


@pytest.fixture(scope="module")
def client(supervisor):
    with ServeClient(supervisor.url, timeout=60.0, retry_seed=0) as client:
        yield client


@pytest.fixture(scope="module")
def local_session(planned_store):
    session = open_readonly_session(planned_store)
    yield session
    session.close()


class TestFleetServing:
    def test_health_reports_live_fleet(self, client, supervisor):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["role"] == "supervisor"
        assert payload["workers_live"] == 2
        assert payload["checkpoint_digest"] == supervisor.checkpoint_digest
        assert len(payload["checkpoint_digest"]) == 64
        states = [worker["state"] for worker in payload["workers"]]
        assert states == [LIVE, LIVE]
        pids = [worker["pid"] for worker in payload["workers"]]
        assert len(set(pids)) == 2  # genuinely separate processes

    def test_fleet_answers_equal_fresh_local_restore(self, client, local_session):
        served = client.query_batch(count=5)
        local = local_session.query_batch(count=5)
        assert served == local

    def test_staleness_across_the_fleet_equals_local(self, client, local_session):
        assert client.staleness(query_id=1) == local_session.staleness(query_id=1)

    def test_single_query_roundtrip(self, client, local_session):
        assert client.query(query_id=2) == local_session.query(query_id=2)

    def test_worker_errors_relay_typed(self, client):
        # A malformed query document 400s on the worker; the supervisor must
        # relay the typed error body, not swallow or retry it.
        with pytest.raises(ServeError, match="HTTP 400"):
            client._request("POST", "/query", {"query": {"bogus": 1}})


class TestResponseCacheIntegration:
    def test_repeat_request_hits_cache_with_equal_answer(
        self, client, supervisor, local_session
    ):
        before = client.health()["cache"]
        first = client.query_batch(count=7)
        again = client.query_batch(count=7)
        after = client.health()["cache"]
        assert first == again == local_session.query_batch(count=7)
        assert after["hits"] >= before["hits"] + 1
        assert after["size"] >= 1

    def test_json_spelling_shares_one_entry(self, client, supervisor):
        url = supervisor.url + "/query_batch"

        def post(raw):
            request = urllib.request.Request(
                url, data=raw, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(request, timeout=60.0) as response:
                return response.read(), response.headers.get("X-Repro-Cache")

        body_a, _ = post(b'{"count": 6, "include_staleness": true}')
        body_b, cache_flag = post(b'{ "include_staleness":true ,"count":6}')
        assert body_a == body_b  # byte-identical across spellings
        assert cache_flag == "hit"


class TestDeadlinesAndShedding:
    def test_impossible_deadline_fails_typed_504(self, supervisor):
        request = urllib.request.Request(
            supervisor.url + "/query",
            data=b"{}",
            headers={
                "Content-Type": "application/json",
                "X-Repro-Deadline-Ms": "0.000001",
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60.0)
        assert excinfo.value.code == 504
        detail = json.loads(excinfo.value.read())
        assert detail["type"] == "ServeDeadlineError"

    def test_header_names_match_in_any_case(self, supervisor):
        def post(headers, body):
            front = supervisor._front.server_address
            with socket.create_connection(front, timeout=60.0) as sock:
                sock.sendall(
                    f"POST /query HTTP/1.1\r\nhost: x\r\n{headers}"
                    f"content-length: {len(body)}\r\nconnection: close\r\n\r\n".encode()
                    + body
                )
                reply = sock.makefile("rb").read()
            return int(reply.split()[1])

        assert post("x-repro-deadline-ms: 0.000001\r\n", b"{}") == 504
        # Trace ids sent in lower case still reach the worker's request span.
        trace = "x-repro-trace-id: lower-t1\r\nx-repro-parent-id: lower-s1\r\n"
        assert post(trace, b'{"query_id": 4321}') == 200
        spans = []
        for handle in supervisor.workers:
            with ServeClient(handle.url) as worker:
                spans += worker.trace()["spans"]
        requests = [
            span for span in spans
            if span["trace_id"] == "lower-t1" and span["name"] == "serve /query"
        ]
        assert [span["parent_id"] for span in requests] == ["lower-s1"]

    def test_admission_control_sheds_beyond_max_inflight(self, planned_store):
        sup = Supervisor(planned_store, workers=1, max_inflight=2)
        sup._inflight = 2  # saturate without racing real slow requests
        status, _, body, headers = sup.dispatch("POST", "/query", b"{}", {})
        assert status == 503
        assert json.loads(body)["type"] == "ServeOverloadError"
        assert float(headers["Retry-After"]) > 0
        assert sup._shed_total == 1

    def test_no_live_worker_sheds_typed(self, planned_store):
        sup = Supervisor(planned_store, workers=1)  # never started: no fleet
        status, _, body, headers = sup.dispatch("POST", "/query", b"{}", {})
        assert status == 503
        assert json.loads(body)["type"] == "ServeOverloadError"
        assert "Retry-After" in headers


class TestRestartBackoff:
    def test_backoff_is_exponential_and_capped(self, planned_store):
        sup = Supervisor(
            planned_store,
            workers=1,
            restart_backoff_base=0.1,
            restart_backoff_cap=5.0,
        )
        delays = [sup.backoff_delay(n) for n in range(10)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert delays[-1] == 5.0  # capped, not 51.2
        assert all(a <= b for a, b in zip(delays, delays[1:]))


class TestConfigValidation:
    def test_zero_workers_is_typed(self, planned_store):
        with pytest.raises(ServeError, match="at least 1 worker"):
            Supervisor(planned_store, workers=0)

    def test_bad_inflight_and_deadline_are_typed(self, planned_store):
        with pytest.raises(ServeError, match="max_inflight"):
            Supervisor(planned_store, max_inflight=0)
        with pytest.raises(ServeError, match="deadline_ms"):
            Supervisor(planned_store, deadline_ms=0)


class TestMergedMetrics:
    def test_metrics_aggregate_supervisor_and_workers(self, client):
        client.query_batch(count=2)  # ensure at least one worker served
        text = client.metrics()
        assert "repro_supervisor_requests_total" in text
        assert "repro_supervisor_workers_live" in text
        assert "repro_serve_cache_hits_total" in text
        # Worker-side serve counters surface through the merge.
        assert "repro_serve_requests_total" in text

    def test_worker_snapshot_endpoint_feeds_the_merge(self, supervisor):
        worker = supervisor.workers[0]
        with urllib.request.urlopen(
            worker.url + "/metrics_snapshot", timeout=10.0
        ) as response:
            payload = json.loads(response.read())
        assert payload["pid"] == worker.pid
        assert "counters" in payload["snapshot"]


class TestGracefulDrain:
    # Started while the module's fleet runs: its zygote is forked from a
    # process that runs that fleet's threads, which Python 3.12 warns about.
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded:DeprecationWarning"
    )
    def test_shutdown_drains_and_stops_the_fleet(self, planned_store):
        sup = Supervisor(
            planned_store,
            workers=1,
            heartbeat_interval=0.15,
            drain_timeout=5.0,
        ).start()
        with ServeClient(sup.url, timeout=60.0) as client:
            assert client.query(query_id=3) is not None
            assert client.shutdown() == {"status": "shutting down"}
        sup.join(timeout=30.0)
        assert all(handle.state == STOPPED for handle in sup.workers)
        assert all(handle.process.poll() is not None for handle in sup.workers)
        with pytest.raises(ServeError, match="cannot reach"):
            ServeClient(sup.url, max_retries=0).health()
