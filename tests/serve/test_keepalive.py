"""Persistent connections on every serve hop: reuse, sync, and clean ends.

A served query used to pay a TCP connect, a handler-thread spawn and a
teardown per hop.  Client → daemon, client → supervisor front and front →
worker now each keep one HTTP/1.1 connection open.  These tests pin what
that must not break: a connection is really reused, a reused connection
never stalls on Nagle + delayed ACK, the request stream never
desynchronises (every body is consumed or the connection closed), a
connection that died idle is re-dialled without counting as a failure, one
that dies under a request is recovered exactly as before, and a stopped
daemon leaves no handler thread behind.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.exceptions import ServeError
from repro.serve import ServeClient, Supervisor, start_server
from repro.serve import server as server_module
from repro.serve.server import MAX_REQUEST_BYTES
from repro.store.checkpoint import open_readonly_session

#: A reply slower than this on a warm loopback connection is a stall, not
#: work: the Nagle / delayed-ACK interaction costs ~40 ms per response.
STALL_MS = 20.0

#: A fleet started while the module's ``fleet`` runs forks its zygote from a
#: process that runs that fleet's threads, which Python 3.12 warns about.
SECOND_FLEET = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning"
)


def count_accepts(server):
    """Test-only: wrap a server's ``get_request``; returns the accept log."""
    accepted = []
    inner = server.get_request

    def get_request():
        request = inner()
        accepted.append(request[1])
        return request

    server.get_request = get_request
    return accepted


@pytest.fixture
def daemon(planned_store):
    session = open_readonly_session(planned_store)
    server = start_server(session, close_session_on_stop=True)
    server.accepted = count_accepts(server)
    yield server, session
    if not session.closed:
        server.stop()


def quiet_fleet(store, workers=2):
    """A fleet whose heartbeat never fires during a test: the only traffic
    on the front → worker links is what the test itself sends."""
    return Supervisor(store, workers=workers, heartbeat_interval=60.0).start()


@pytest.fixture(scope="module")
def fleet(planned_store):
    supervisor = quiet_fleet(planned_store)
    yield supervisor
    supervisor.stop()


@pytest.fixture(scope="module")
def local(planned_store):
    session = open_readonly_session(planned_store)
    yield session
    session.close()


def handler_threads():
    return [
        thread
        for thread in threading.enumerate()
        if "process_request_thread" in thread.name
    ]


# -- (a) one connection per hop --------------------------------------------------------


def test_sequential_queries_share_one_daemon_connection(daemon, local):
    server, _session = daemon
    with ServeClient(server.url) as client:
        for query_id in range(12):
            assert client.query(query_id=query_id) == local.query(query_id=query_id)
        assert client.health()["status"] == "ok"
        assert client.metrics().startswith("#")
    assert len(server.accepted) == 1


def test_fleet_keeps_one_front_and_one_connection_per_worker(
    planned_store, local, monkeypatch
):
    dialled = []
    connect = http.client.HTTPConnection.connect

    def counting_connect(self):
        dialled.append(self.port)
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
    supervisor = quiet_fleet(planned_store)
    try:
        accepted = count_accepts(supervisor._front)
        front_port = supervisor._front.server_address[1]
        with ServeClient(supervisor.url) as client:
            # Distinct query ids: every request misses the response cache
            # and is forwarded, round-robin, so both workers see six.
            for query_id in range(12):
                assert client.query(query_id=query_id) == local.query(
                    query_id=query_id
                )
        assert len(accepted) == 1
        assert dialled.count(front_port) == 1
        for handle in supervisor.workers:
            assert dialled.count(handle.port) == 1
    finally:
        supervisor.stop()


def test_threads_sharing_a_client_get_a_connection_each(daemon, local):
    server, _session = daemon
    expected = local.query(query_id=1)
    barrier = threading.Barrier(4)
    wrong = []

    with ServeClient(server.url) as client:

        def hammer():
            barrier.wait(10.0)
            for _ in range(10):
                if client.query(query_id=1) != expected:
                    wrong.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    assert not wrong
    assert 1 <= len(server.accepted) <= 4  # never one per request


# -- (b) no Nagle / delayed-ACK stall ---------------------------------------------------


def slowest_of_50_ms(send):
    """Worst latency of 50 sequential requests — best of three passes, so
    one scheduler hiccup does not fail the guard but a per-response stall
    (which hits every request of every pass) does."""
    passes = []
    for _ in range(3):
        latencies = []
        for _ in range(50):
            started = time.perf_counter()
            send()
            latencies.append((time.perf_counter() - started) * 1000.0)
        passes.append(max(latencies))
    return min(passes)


def test_reused_daemon_connection_never_stalls(daemon):
    server, _session = daemon
    with ServeClient(server.url) as client:
        assert slowest_of_50_ms(lambda: client.query(query_id=2)) < STALL_MS
        assert slowest_of_50_ms(client.health) < STALL_MS
    assert len(server.accepted) == 1


def test_reused_fleet_connections_never_stall(fleet):
    with ServeClient(fleet.url) as client:
        ids = iter(range(10_000, 20_000))  # all cache misses: both hops
        assert slowest_of_50_ms(lambda: client.query(query_id=next(ids))) < STALL_MS
        # ... and all cache hits: the front hop alone.
        assert slowest_of_50_ms(lambda: client.query(query_id=10_000)) < STALL_MS


# -- (c) a connection closed while idle is re-dialled, not retried ----------------------


def test_idle_timeout_closes_the_connection_and_the_client_redials(
    daemon, local, monkeypatch
):
    server, _session = daemon
    # The handler reads it per connection, in setup(): patch before dialling.
    monkeypatch.setattr(server_module.KeepAliveHandler, "timeout", 0.2)
    with ServeClient(server.url) as client:
        assert client.query(query_id=4) == local.query(query_id=4)
        deadline = time.monotonic() + 10.0
        while handler_threads() and time.monotonic() < deadline:
            time.sleep(0.05)  # the daemon hangs up on the idle connection
        assert not handler_threads()
        assert client.query(query_id=5) == local.query(query_id=5)
        assert client.retries_total == 0
    assert len(server.accepted) == 2


# -- (d) a worker that dies between two requests on a warm link -------------------------


@SECOND_FLEET
def test_worker_killed_on_a_warm_link_is_recovered_on_the_other(
    planned_store, local
):
    supervisor = quiet_fleet(planned_store)
    try:
        with ServeClient(supervisor.url) as client:
            for query_id in (20, 21):  # one each: both links are warm
                assert client.query(query_id=query_id) == local.query(
                    query_id=query_id
                )
            victim = supervisor.workers[0]
            victim.process.kill()
            victim.process.wait(10.0)
            # Round-robin sends one of these two to the dead worker: its
            # pooled connection fails, the re-dial is refused, and the
            # request is answered by the survivor.
            for query_id in (22, 23):
                assert client.query(query_id=query_id) == local.query(
                    query_id=query_id
                )
            assert client.retries_total == 0  # the fleet hid the crash
            health = client.health()
        assert health["retries_total"] == 1
        assert health["restarts_total"] == 1
        assert health["workers_live"] == 1
        assert supervisor.workers[0].link is None
    finally:
        supervisor.stop()


# -- (e) the request stream stays in sync ----------------------------------------------


class RawConnection:
    """A socket speaking HTTP by hand, one response at a time."""

    def __init__(self, url):
        host, port = url.rsplit("/", 1)[1].split(":")
        self.sock = socket.create_connection((host, int(port)), timeout=10.0)
        self.reader = self.sock.makefile("rb")

    def send(self, text, body=b""):
        self.sock.sendall(text.replace("\n", "\r\n").encode("ascii") + body)

    def response(self):
        """``(status, headers, body)``, or ``None`` when the peer hung up."""
        try:
            status_line = self.reader.readline()
        except ConnectionResetError:
            return None
        if not status_line:
            return None
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = self.reader.readline().strip()
            if not line:
                break
            name, value = line.decode("ascii").split(":", 1)
            headers[name.lower()] = value.strip()
        body = self.reader.read(int(headers["content-length"]))
        return status, headers, body

    def close(self):
        self.reader.close()
        self.sock.close()


@pytest.fixture(params=["daemon", "fleet"])
def service_url(request, planned_store):
    """The same checks against the single daemon and the supervisor front."""
    if request.param == "fleet":
        yield request.getfixturevalue("fleet").url
        return
    server, _session = request.getfixturevalue("daemon")
    yield server.url


@pytest.fixture
def raw(service_url):
    connection = RawConnection(service_url)
    yield connection
    connection.close()


def assert_health_follows(raw):
    raw.send("GET /health HTTP/1.1\nHost: x\n\n")
    status, _headers, body = raw.response()
    assert status == 200
    assert json.loads(body)["status"] in ("ok", "degraded")


def test_404_post_with_a_body_leaves_the_connection_in_sync(raw):
    body = b'{"count": 3}'
    raw.send(f"POST /nope HTTP/1.1\nHost: x\nContent-Length: {len(body)}\n\n", body)
    status, _headers, _body = raw.response()
    assert status == 404
    assert_health_follows(raw)


def test_get_with_a_body_leaves_the_connection_in_sync(raw):
    raw.send("GET /health HTTP/1.1\nHost: x\nContent-Length: 5\n\n", b"hello")
    assert raw.response()[0] == 200
    assert_health_follows(raw)


def test_oversize_post_is_a_typed_400_and_the_connection_closes(raw):
    raw.send(
        "POST /query HTTP/1.1\nHost: x\n"
        f"Content-Length: {MAX_REQUEST_BYTES + 1}\n\n",
        b"{",
    )
    status, headers, body = raw.response()
    assert status == 400
    assert json.loads(body)["type"] == "ServeError"
    assert headers["connection"] == "close"
    # The unread body must never be parsed as a request (a 501): the
    # daemon hangs up instead.
    raw.send("GET /health HTTP/1.1\nHost: x\n\n")
    assert raw.response() is None


@pytest.mark.parametrize(
    "header",
    ["Content-Length: nope", "Content-Length: -1", "Content-Length: " + "9" * 5000,
     "Transfer-Encoding: chunked"],
    ids=["malformed", "negative", "huge", "chunked"],
)
def test_unreadable_body_is_a_typed_400_never_a_500_or_a_hang(raw, header):
    raw.send(f"POST /query HTTP/1.1\nHost: x\n{header}\n\n")
    status, headers, body = raw.response()
    assert status == 400
    assert json.loads(body)["type"] == "ServeError"
    assert headers["connection"] == "close"
    assert raw.response() is None


def shutdown_then_health(url):
    raw = RawConnection(url)
    try:
        raw.send("POST /shutdown HTTP/1.1\nHost: x\nContent-Length: 2\n\n", b"{}")
        status, _headers, body = raw.response()
        assert status == 200
        assert json.loads(body) == {"status": "shutting down"}
        try:
            raw.send("GET /health HTTP/1.1\nHost: x\n\n")
        except OSError:
            return  # already hung up
        follow_up = raw.response()
        # The body was consumed, so either the daemon was quick enough to
        # hang up or it answered the request for what it was — never 501.
        assert follow_up is None or follow_up[0] == 200
    finally:
        raw.close()


def test_shutdown_body_is_consumed_on_the_daemon(daemon):
    server, session = daemon
    shutdown_then_health(server.url)
    server.join(timeout=10.0)
    assert session.closed


@SECOND_FLEET
def test_shutdown_body_is_consumed_on_the_front(planned_store):
    supervisor = quiet_fleet(planned_store, workers=1)
    try:
        shutdown_then_health(supervisor.url)
        supervisor.join(timeout=30.0)
    finally:
        supervisor.stop()


# -- (f) a stopped daemon answers nothing ----------------------------------------------


def test_stop_ends_warm_connections_and_their_handler_threads(daemon):
    server, session = daemon
    with ServeClient(
        server.url, max_retries=1, retry_backoff_base=0.01, retry_seed=0
    ) as client:
        client.query(query_id=6)
        handlers = handler_threads()
        assert handlers, "the warm connection's handler should be waiting"
        server.stop()
        # Handlers ended before the session was released: none can touch it.
        assert not any(thread.is_alive() for thread in handlers)
        assert session.closed
        with pytest.raises(ServeError, match="cannot reach"):
            client.query(query_id=6)


@SECOND_FLEET
def test_drain_ends_warm_front_connections(planned_store):
    supervisor = quiet_fleet(planned_store, workers=1)
    with ServeClient(
        supervisor.url, max_retries=1, retry_backoff_base=0.01, retry_seed=0
    ) as client:
        try:
            client.query(query_id=7)
            before = set(handler_threads())
        finally:
            supervisor.stop()
        assert not any(thread.is_alive() for thread in before)
        assert all(handle.link is None for handle in supervisor.workers)
        with pytest.raises(ServeError, match="cannot reach"):
            client.query(query_id=7)


# -- (g) clients that do not keep alive are served as before ----------------------------


@pytest.mark.parametrize(
    "request_text",
    [
        "GET /health HTTP/1.1\nHost: x\nConnection: close\n\n",
        "GET /health HTTP/1.0\n\n",
    ],
    ids=["connection-close", "http-1.0"],
)
def test_one_shot_clients_get_a_complete_response_and_a_closed_socket(
    raw, request_text
):
    raw.send(request_text)
    status, _headers, body = raw.response()
    assert status == 200
    assert json.loads(body)["status"] in ("ok", "degraded")
    assert raw.reader.read() == b""  # EOF: the daemon closed its side
